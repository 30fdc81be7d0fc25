package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
)

// check is one correctness condition on one operation.
type check struct {
	name string
	ok   bool
	why  string
}

func pass(name string, ok bool, format string, args ...any) check {
	c := check{name: name, ok: ok}
	if !ok {
		c.why = fmt.Sprintf(format, args...)
	}
	return c
}

// checker counts operations and the ones that failed any check, and
// pins the digest of every report so a repetition that produces
// different bytes fails.
type checker struct {
	attempted, failed int
	failures          []string
	digests           map[string]string
}

func newChecker() *checker { return &checker{digests: map[string]string{}} }

// op records one operation; it fails when any of its checks fails.
func (c *checker) op(what string, checks ...check) {
	c.attempted++
	bad := false
	for _, ch := range checks {
		if ch.ok {
			continue
		}
		bad = true
		if len(c.failures) < 20 {
			c.failures = append(c.failures, fmt.Sprintf("%s: %s: %s", what, ch.name, ch.why))
		}
	}
	if bad {
		c.failed++
	}
}

// fail records an operation that could not run at all.
func (c *checker) fail(what string, err error) {
	c.op(what, check{name: "error", why: err.Error()})
}

// digest returns the SHA-256 of v's JSON encoding and a check that it
// equals the digest first recorded under key.
func (c *checker) digest(key string, v any) (string, check) {
	b, err := json.Marshal(v)
	if err != nil {
		return "", check{name: "digest", why: err.Error()}
	}
	sum := sha256.Sum256(b)
	d := hex.EncodeToString(sum[:])
	first, seen := c.digests[key]
	if !seen {
		c.digests[key] = d
		first = d
	}
	return d, pass("digest", d == first, "report %s hashed %s, first repetition %s", key, d[:12], first[:12])
}
