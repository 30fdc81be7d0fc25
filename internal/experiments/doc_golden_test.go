package experiments

import (
	"bytes"
	"fmt"
	"os"
	"regexp"
	"strings"
	"testing"
)

// docBlock is one checked block of EXPERIMENTS.md: the experiment its
// marker names, the section it sits in and the fenced text after it.
type docBlock struct {
	exp, section, text string
}

var docMarker = regexp.MustCompile(`^<!-- paperbench -exp (\S+) -->$`)

// docBlocks parses doc for `<!-- paperbench -exp NAME -->` markers, each
// followed by a fenced block, and returns the blocks in document order.
func docBlocks(doc string) ([]docBlock, error) {
	lines := strings.Split(doc, "\n")
	var blocks []docBlock
	section := "(no heading)"
	for i := 0; i < len(lines); i++ {
		if strings.HasPrefix(lines[i], "#") {
			section = strings.TrimSpace(strings.TrimLeft(lines[i], "#"))
			continue
		}
		m := docMarker.FindStringSubmatch(lines[i])
		if m == nil {
			continue
		}
		if i+1 >= len(lines) || !strings.HasPrefix(lines[i+1], "```") {
			return nil, fmt.Errorf("%s: marker for %q is not followed by a fenced block", section, m[1])
		}
		end := i + 2
		for end < len(lines) && lines[end] != "```" {
			end++
		}
		if end == len(lines) {
			return nil, fmt.Errorf("%s: block for %q has no closing fence", section, m[1])
		}
		text := strings.Join(lines[i+2:end], "\n") + "\n"
		blocks = append(blocks, docBlock{exp: m[1], section: section, text: text})
		i = end
	}
	return blocks, nil
}

// TestGoldenExperimentsDoc checks every result block of EXPERIMENTS.md
// against the experiment that prints it: each marked row of All runs at
// DefaultConfig (full size) and must render the block byte for byte.
// A result quoted in the document therefore cannot drift from the code.
func TestGoldenExperimentsDoc(t *testing.T) {
	raw, err := os.ReadFile("../../EXPERIMENTS.md")
	if err != nil {
		t.Fatal(err)
	}
	blocks, err := docBlocks(string(raw))
	if err != nil {
		t.Fatal(err)
	}
	if len(blocks) == 0 {
		t.Fatal("EXPERIMENTS.md has no paperbench markers")
	}
	seen := map[string]string{}
	for _, b := range blocks {
		if prev, dup := seen[b.exp]; dup {
			t.Errorf("%s: -exp %s is already quoted in %s", b.section, b.exp, prev)
			continue
		}
		seen[b.exp] = b.section
		e, ok := Find(b.exp)
		if !ok {
			t.Errorf("%s: marker names no experiment %q", b.section, b.exp)
			continue
		}
		var out bytes.Buffer
		if _, err := e.Run(DefaultConfig(), &out); err != nil {
			t.Errorf("%s: -exp %s: %v", b.section, b.exp, err)
			continue
		}
		if got := out.String(); got != b.text {
			t.Errorf("%s: the -exp %s block differs from the output at %s\nfull output:\n%s",
				b.section, b.exp, firstDiff(b.text, got), got)
		}
	}
}

// firstDiff names the first line on which the documented and the
// rendered text disagree.
func firstDiff(doc, got string) string {
	dl, gl := strings.Split(doc, "\n"), strings.Split(got, "\n")
	for i := 0; i < len(dl) || i < len(gl); i++ {
		var d, g string
		if i < len(dl) {
			d = dl[i]
		}
		if i < len(gl) {
			g = gl[i]
		}
		if d != g {
			return fmt.Sprintf("line %d:\n  doc: %q\n  got: %q", i+1, d, g)
		}
	}
	return "(no differing line)"
}
