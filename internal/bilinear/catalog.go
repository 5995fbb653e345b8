package bilinear

import (
	"fmt"
	"strings"

	"pathrouting/internal/rat"
)

// Classical returns the classical (definition-based) algorithm for
// n₀×n₀ multiplication: b = n₀³ products a_ik·b_kj. Its exponent is
// ω₀ = 3, so it is *not* fast and serves as the baseline excluded by the
// hypotheses of the paper's Theorem 1. Its base graph is also the
// canonical example of disconnected encoding/decoding graphs and of
// multiple copying: every left operand is a bare entry a_ik copied into
// n₀ different products.
func Classical(n0 int) *Algorithm {
	a := n0 * n0
	b := n0 * n0 * n0
	alg := &Algorithm{
		Name: "classical" + string(rune('0'+n0)),
		N0:   n0,
		U:    make([][]rat.Rat, b),
		V:    make([][]rat.Rat, b),
		W:    make([][]rat.Rat, a),
	}
	for o := 0; o < a; o++ {
		alg.W[o] = make([]rat.Rat, b)
	}
	t := 0
	for i := 0; i < n0; i++ {
		for j := 0; j < n0; j++ {
			for k := 0; k < n0; k++ {
				u := make([]rat.Rat, a)
				v := make([]rat.Rat, a)
				u[i*n0+k] = rat.One
				v[k*n0+j] = rat.One
				alg.U[t] = u
				alg.V[t] = v
				alg.W[i*n0+j][t] = rat.One
				t++
			}
		}
	}
	return alg
}

// Strassen returns Strassen's original 7-multiplication algorithm for
// 2×2 matrices (ω₀ = log₂7 ≈ 2.807), the paper's running example.
//
// Entry order: e = 0..3 ↦ a11, a12, a21, a22 (row-major).
func Strassen() *Algorithm {
	return &Algorithm{
		Name: "strassen",
		N0:   2,
		U: [][]rat.Rat{
			ints(1, 0, 0, 1),   // M1: A11+A22
			ints(0, 0, 1, 1),   // M2: A21+A22
			ints(1, 0, 0, 0),   // M3: A11
			ints(0, 0, 0, 1),   // M4: A22
			ints(1, 1, 0, 0),   // M5: A11+A12
			ints(-1, 0, 1, 0),  // M6: A21-A11
			ints(0, 1, 0, -1)}, // M7: A12-A22
		V: [][]rat.Rat{
			ints(1, 0, 0, 1),  // M1: B11+B22
			ints(1, 0, 0, 0),  // M2: B11
			ints(0, 1, 0, -1), // M3: B12-B22
			ints(-1, 0, 1, 0), // M4: B21-B11
			ints(0, 0, 0, 1),  // M5: B22
			ints(1, 1, 0, 0),  // M6: B11+B12
			ints(0, 0, 1, 1)}, // M7: B21+B22
		W: [][]rat.Rat{
			ints(1, 0, 0, 1, -1, 0, 1), // C11 = M1+M4-M5+M7
			ints(0, 0, 1, 0, 1, 0, 0),  // C12 = M3+M5
			ints(0, 1, 0, 1, 0, 0, 0),  // C21 = M2+M4
			ints(1, -1, 1, 0, 0, 1, 0), // C22 = M1-M2+M3+M6
		},
	}
}

// Winograd returns Winograd's 7-multiplication, 15-addition variant of
// Strassen's algorithm. Same exponent as Strassen but a structurally
// different base graph (different encoding/decoding nonzero patterns),
// useful for checking that the routing machinery does not silently
// depend on Strassen's particular wiring.
func Winograd() *Algorithm {
	return &Algorithm{
		Name: "winograd",
		N0:   2,
		U: [][]rat.Rat{
			ints(1, 0, 0, 0),   // P1: A11
			ints(0, 1, 0, 0),   // P2: A12
			ints(1, 1, -1, -1), // P3: A11+A12-A21-A22
			ints(0, 0, 0, 1),   // P4: A22
			ints(0, 0, 1, 1),   // P5: A21+A22
			ints(-1, 0, 1, 1),  // P6: A21+A22-A11
			ints(1, 0, -1, 0)}, // P7: A11-A21
		V: [][]rat.Rat{
			ints(1, 0, 0, 0),   // P1: B11
			ints(0, 0, 1, 0),   // P2: B21
			ints(0, 0, 0, 1),   // P3: B22
			ints(1, -1, -1, 1), // P4: B11-B12-B21+B22
			ints(-1, 1, 0, 0),  // P5: B12-B11
			ints(1, -1, 0, 1),  // P6: B11-B12+B22
			ints(0, -1, 0, 1)}, // P7: B22-B12
		W: [][]rat.Rat{
			ints(1, 1, 0, 0, 0, 0, 0),  // C11 = P1+P2
			ints(1, 0, 1, 0, 1, 1, 0),  // C12 = P1+P3+P5+P6
			ints(1, 0, 0, -1, 0, 1, 1), // C21 = P1-P4+P6+P7
			ints(1, 0, 0, 0, 1, 1, 1),  // C22 = P1+P5+P6+P7
		},
	}
}

// LadermanProducts returns the 23 product encodings (U, V) of a
// Laderman-style 23-multiplication 3×3 algorithm (after Laderman 1976;
// the right-operand rows of m3 and m11 were recovered by exact linear
// solving so that the 23 rank-one tensors provably span 3×3 matrix
// multiplication — see cmd/ladsearch). The decoding coefficients are
// derived by SolveDecoder, which both recovers W and proves correctness.
//
// Entry order: e = 3i+j ↦ a_{i+1,j+1}, row-major (a11 a12 a13 a21 ...).
func LadermanProducts() (u, v [][]rat.Rat) {
	u = [][]rat.Rat{
		ints(1, 1, 1, -1, -1, 0, 0, -1, -1), // m1:  a11+a12+a13-a21-a22-a32-a33
		ints(1, 0, 0, -1, 0, 0, 0, 0, 0),    // m2:  a11-a21
		ints(0, 0, 0, 0, 1, 0, 0, 0, 0),     // m3:  a22
		ints(-1, 0, 0, 1, 1, 0, 0, 0, 0),    // m4:  -a11+a21+a22
		ints(0, 0, 0, 1, 1, 0, 0, 0, 0),     // m5:  a21+a22
		ints(1, 0, 0, 0, 0, 0, 0, 0, 0),     // m6:  a11
		ints(-1, 0, 0, 0, 0, 0, 1, 1, 0),    // m7:  -a11+a31+a32
		ints(-1, 0, 0, 0, 0, 0, 1, 0, 0),    // m8:  -a11+a31
		ints(0, 0, 0, 0, 0, 0, 1, 1, 0),     // m9:  a31+a32
		ints(1, 1, 1, 0, -1, -1, -1, -1, 0), // m10: a11+a12+a13-a22-a23-a31-a32
		ints(0, 0, 0, 0, 0, 0, 0, 1, 0),     // m11: a32
		ints(0, 0, -1, 0, 0, 0, 0, 1, 1),    // m12: -a13+a32+a33
		ints(0, 0, 1, 0, 0, 0, 0, 0, -1),    // m13: a13-a33
		ints(0, 0, 1, 0, 0, 0, 0, 0, 0),     // m14: a13
		ints(0, 0, 0, 0, 0, 0, 0, 1, 1),     // m15: a32+a33
		ints(0, 0, -1, 0, 1, 1, 0, 0, 0),    // m16: -a13+a22+a23
		ints(0, 0, 1, 0, 0, -1, 0, 0, 0),    // m17: a13-a23
		ints(0, 0, 0, 0, 1, 1, 0, 0, 0),     // m18: a22+a23
		ints(0, 1, 0, 0, 0, 0, 0, 0, 0),     // m19: a12
		ints(0, 0, 0, 0, 0, 1, 0, 0, 0),     // m20: a23
		ints(0, 0, 0, 1, 0, 0, 0, 0, 0),     // m21: a21
		ints(0, 0, 0, 0, 0, 0, 1, 0, 0),     // m22: a31
		ints(0, 0, 0, 0, 0, 0, 0, 0, 1),     // m23: a33
	}
	v = [][]rat.Rat{
		ints(0, 0, 0, 0, 1, 0, 0, 0, 0),    // m1:  b22
		ints(0, -1, 0, 0, 1, 0, 0, 0, 0),   // m2:  -b12+b22
		ints(1, -1, 0, -1, 1, 1, 1, 0, -1), // m3:  b11-b12-b21+b22+b23+b31-b33
		ints(1, -1, 0, 0, 1, 0, 0, 0, 0),   // m4:  b11-b12+b22
		ints(-1, 1, 0, 0, 0, 0, 0, 0, 0),   // m5:  -b11+b12
		ints(1, 0, 0, 0, 0, 0, 0, 0, 0),    // m6:  b11
		ints(1, 0, -1, 0, 0, 1, 0, 0, 0),   // m7:  b11-b13+b23
		ints(0, 0, 1, 0, 0, -1, 0, 0, 0),   // m8:  b13-b23
		ints(-1, 0, 1, 0, 0, 0, 0, 0, 0),   // m9:  -b11+b13
		ints(0, 0, 0, 0, 0, 1, 0, 0, 0),    // m10: b23
		ints(1, 0, -1, -1, 1, 1, 1, -1, 0), // m11: b11-b13-b21+b22+b23+b31-b32
		ints(0, 0, 0, 0, 1, 0, 1, -1, 0),   // m12: b22+b31-b32
		ints(0, 0, 0, 0, 1, 0, 0, -1, 0),   // m13: b22-b32
		ints(0, 0, 0, 0, 0, 0, 1, 0, 0),    // m14: b31
		ints(0, 0, 0, 0, 0, 0, -1, 1, 0),   // m15: -b31+b32
		ints(0, 0, 0, 0, 0, 1, 1, 0, -1),   // m16: b23+b31-b33
		ints(0, 0, 0, 0, 0, 1, 0, 0, -1),   // m17: b23-b33
		ints(0, 0, 0, 0, 0, 0, -1, 0, 1),   // m18: -b31+b33
		ints(0, 0, 0, 1, 0, 0, 0, 0, 0),    // m19: b21
		ints(0, 0, 0, 0, 0, 0, 0, 1, 0),    // m20: b32
		ints(0, 0, 1, 0, 0, 0, 0, 0, 0),    // m21: b13
		ints(0, 1, 0, 0, 0, 0, 0, 0, 0),    // m22: b12
		ints(0, 0, 0, 0, 0, 0, 0, 0, 1),    // m23: b33
	}
	return u, v
}

// Laderman returns Laderman's 23-multiplication algorithm for 3×3
// matrices (ω₀ = log₃23 ≈ 2.854), the classical fast square algorithm
// with n₀ ≠ 2. The decoding matrix W is derived (and thereby proved
// correct) by exact linear solving from the published products.
func Laderman() (*Algorithm, error) {
	u, v := LadermanProducts()
	w, err := SolveDecoder(3, u, v)
	if err != nil {
		return nil, err
	}
	alg := &Algorithm{Name: "laderman", N0: 3, U: u, V: v, W: w}
	if err := alg.Validate(); err != nil {
		return nil, err
	}
	return alg, nil
}

// StrassenSquared returns Strassen⊗Strassen: a 4×4 base algorithm with
// 49 products and the same exponent log₂7. Used to check that routing
// bounds hold for larger uniform base graphs.
func StrassenSquared() *Algorithm {
	alg := Tensor(Strassen(), Strassen())
	alg.Name = "strassen2"
	return alg
}

// DisconnectedFast returns Strassen⊗Classical(2): a fast (b = 56 < 64,
// ω₀ = log₄56 ≈ 2.904) 4×4 base algorithm whose decoding base graph is
// disconnected and whose encoding graphs contain multiple copying.
// This is exactly the class of Strassen-like algorithms for which the
// edge-expansion technique of Ballard–Demmel–Holtz–Schwartz fails and
// the paper's path-routing technique was introduced.
func DisconnectedFast() *Algorithm {
	alg := Tensor(Strassen(), Classical(2))
	alg.Name = "disconnected56"
	return alg
}

// catalog names every catalog algorithm, in All's order, next to its
// constructor, so ByName builds only the algorithm asked for.
var catalog = []struct {
	name  string
	build func() (*Algorithm, error)
}{
	{"classical2", func() (*Algorithm, error) { return Classical(2), nil }},
	{"classical3", func() (*Algorithm, error) { return Classical(3), nil }},
	{"strassen", func() (*Algorithm, error) { return Strassen(), nil }},
	{"winograd", func() (*Algorithm, error) { return Winograd(), nil }},
	{"strassen2", func() (*Algorithm, error) { return StrassenSquared(), nil }},
	{"disconnected56", func() (*Algorithm, error) { return DisconnectedFast(), nil }},
	{"laderman", Laderman},
}

// All returns every catalog algorithm, constructing Laderman on the fly.
// Algorithms that fail construction are skipped (Laderman cannot fail:
// its construction is covered by tests).
func All() []*Algorithm {
	algs := make([]*Algorithm, 0, len(catalog))
	for _, c := range catalog {
		if alg, err := c.build(); err == nil {
			algs = append(algs, alg)
		}
	}
	return algs
}

// ByName builds the catalog algorithm with the given name, and no
// other. An unknown name is an error that lists the catalog.
func ByName(name string) (*Algorithm, error) {
	names := make([]string, len(catalog))
	for i, c := range catalog {
		if c.name == name {
			return c.build()
		}
		names[i] = c.name
	}
	return nil, fmt.Errorf("unknown algorithm %q (catalog: %s)", name, strings.Join(names, ", "))
}

// Fast returns the catalog algorithms with ω₀ < 3 (those covered by the
// paper's Theorem 1).
func Fast() []*Algorithm {
	var out []*Algorithm
	for _, alg := range All() {
		if alg.IsFast() {
			out = append(out, alg)
		}
	}
	return out
}
