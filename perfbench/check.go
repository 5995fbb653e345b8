package main

import (
	"encoding/json"
	"fmt"
	"os"
	"strconv"
	"strings"
)

// spec is one certificate request: an algorithm from the catalog, its
// base dimension n₀ (a = n₀² entries per base matrix), and the depth k.
type spec struct {
	Alg string
	N0  int
	K   int
}

func (s spec) key() string { return fmt.Sprintf("%s-k%d", s.Alg, s.K) }

// cert is the deterministic certificate line both surfaces print:
// routecheck's `stats:` line and the job document's "certificate".
type cert struct {
	Paths, TotalHits, MaxVertexHits, MaxMetaHits, Bound, AdjChecked int64
}

// certFields are the certificate's key=value fields, in print order.
var certFields = []string{"paths", "totalHits", "maxVertexHits", "maxMetaHits", "bound", "adjChecked"}

// parseCert parses a certificate line, with or without the `stats: `
// prefix. Every field must be present exactly once and nothing else.
func parseCert(line string) (cert, error) {
	line = strings.TrimPrefix(strings.TrimSpace(line), "stats: ")
	words := strings.Fields(line)
	if len(words) != len(certFields) {
		return cert{}, fmt.Errorf("certificate %q: want %d fields", line, len(certFields))
	}
	var c cert
	dst := []*int64{&c.Paths, &c.TotalHits, &c.MaxVertexHits, &c.MaxMetaHits, &c.Bound, &c.AdjChecked}
	for i, w := range words {
		name, val, ok := strings.Cut(w, "=")
		if !ok || name != certFields[i] {
			return cert{}, fmt.Errorf("certificate %q: field %d is %q, want %s=", line, i, w, certFields[i])
		}
		n, err := strconv.ParseInt(val, 10, 64)
		if err != nil {
			return cert{}, fmt.Errorf("certificate %q: %s: %v", line, name, err)
		}
		*dst[i] = n
	}
	return c, nil
}

// checkClosedForms checks the paper's counts for G_k: 2·a²ᵏ pair
// paths, each of 6k+4 vertices, and the bound 6aᵏ, which both maxima
// must respect.
func checkClosedForms(s spec, c cert) error {
	a := int64(s.N0 * s.N0)
	aK := int64(1)
	for i := 0; i < s.K; i++ {
		aK *= a
	}
	switch {
	case c.Paths != 2*aK*aK:
		return fmt.Errorf("%s: paths=%d, want 2·a^2k = %d", s.key(), c.Paths, 2*aK*aK)
	case c.TotalHits != c.Paths*int64(6*s.K+4):
		return fmt.Errorf("%s: totalHits=%d, want paths·(6k+4) = %d", s.key(), c.TotalHits, c.Paths*int64(6*s.K+4))
	case c.Bound != 6*aK:
		return fmt.Errorf("%s: bound=%d, want 6a^k = %d", s.key(), c.Bound, 6*aK)
	case c.MaxVertexHits > c.Bound || c.MaxMetaHits > c.Bound:
		return fmt.Errorf("%s: maxima %d/%d exceed bound %d", s.key(), c.MaxVertexHits, c.MaxMetaHits, c.Bound)
	}
	return nil
}

// pinned maps spec keys to the certificate lines the full-enumeration
// oracle printed for them (expected.json, written by -pin).
type pinned map[string]string

func loadPinned(path string) (pinned, error) {
	body, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var p pinned
	if err := json.Unmarshal(body, &p); err != nil {
		return nil, fmt.Errorf("decode %s: %w", path, err)
	}
	return p, nil
}

// check verifies a certificate line a program printed for s: it must
// parse, satisfy the closed forms, and equal the pinned oracle line
// byte for byte.
func (p pinned) check(s spec, line string) (cert, error) {
	line = strings.TrimPrefix(strings.TrimSpace(line), "stats: ")
	c, err := parseCert(line)
	if err != nil {
		return c, err
	}
	if err := checkClosedForms(s, c); err != nil {
		return c, err
	}
	want, ok := p[s.key()]
	if !ok {
		return c, fmt.Errorf("%s: no pinned certificate", s.key())
	}
	if line != want {
		return c, fmt.Errorf("%s: certificate %q differs from pinned %q", s.key(), line, want)
	}
	return c, nil
}

// statsLine returns the `stats:` line of routecheck's output.
func statsLine(out string) (string, error) {
	for _, l := range strings.Split(out, "\n") {
		if strings.HasPrefix(l, "stats: ") {
			return l, nil
		}
	}
	return "", fmt.Errorf("no stats: line in output")
}
