// Command algcat inspects the algorithm catalog: structural summaries,
// communication exponents, duals, and JSON export/import of verified
// algorithms.
//
// Usage:
//
//	algcat                        # summary table of the catalog
//	algcat -show strassen         # full coefficient listing
//	algcat -export strassen       # JSON to stdout
//	algcat -verify file.json      # import + Brent-verify a JSON algorithm
//	algcat -duals strassen        # the algorithm's symmetry family
package main

import (
	"flag"
	"fmt"
	"os"

	"pathrouting/internal/bilinear"
	"pathrouting/internal/expansion"
)

var (
	show   = flag.String("show", "", "print full coefficients of the named algorithm")
	export = flag.String("export", "", "print the named algorithm as JSON")
	verify = flag.String("verify", "", "import and verify an algorithm JSON file")
	duals  = flag.String("duals", "", "list the symmetry family of the named algorithm")
)

func fail(err error) {
	fmt.Fprintln(os.Stderr, "error:", err)
	os.Exit(1)
}

func find(name string) *bilinear.Algorithm {
	alg, err := bilinear.ByName(name)
	if err != nil {
		fail(err)
	}
	return alg
}

func main() {
	flag.Parse()
	switch {
	case *show != "":
		alg := find(*show)
		fmt.Printf("%s: n0=%d b=%d ω₀=%.4f\n", alg.Name, alg.N0, alg.B(), alg.Omega0())
		for t := 0; t < alg.B(); t++ {
			fmt.Printf("  m%-3d U=%v\n       V=%v\n", t+1, alg.U[t], alg.V[t])
		}
		for o := 0; o < alg.A(); o++ {
			fmt.Printf("  c%-3d W=%v\n", o+1, alg.W[o])
		}
	case *export != "":
		data, err := bilinear.MarshalAlgorithm(find(*export))
		if err != nil {
			fail(err)
		}
		os.Stdout.Write(data)
		fmt.Println()
	case *verify != "":
		data, err := os.ReadFile(*verify)
		if err != nil {
			fail(err)
		}
		alg, err := bilinear.UnmarshalAlgorithm(data)
		if err != nil {
			fail(err)
		}
		fmt.Printf("VERIFIED: %s (n0=%d, b=%d, ω₀=%.4f) passes the Brent equations\n",
			alg.Name, alg.N0, alg.B(), alg.Omega0())
	case *duals != "":
		alg := find(*duals)
		family := bilinear.Duals(alg)
		fmt.Printf("%s has %d verified duals:\n", alg.Name, len(family))
		for _, d := range family {
			fmt.Printf("  %s\n", d.Name)
		}
	default:
		fmt.Printf("%-16s %-4s %-4s %-7s %-6s %-9s %-9s %-10s\n",
			"algorithm", "n0", "b", "ω₀", "fast", "oneMult", "decConn", "expansion")
		for _, alg := range bilinear.All() {
			st := bilinear.Analyze(alg)
			rep := expansion.Analyze(alg)
			expStr := "usable"
			if !rep.EdgeExpansionUsable {
				expStr = "fails"
			}
			fmt.Printf("%-16s %-4d %-4d %-7.3f %-6v %-9v %-9v %-10s\n",
				alg.Name, alg.N0, alg.B(), alg.Omega0(), alg.IsFast(),
				st.SatisfiesOneMultiplicationPerCombination(), rep.DecodingConnected, expStr)
		}
	}
}
