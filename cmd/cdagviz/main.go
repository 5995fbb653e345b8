// Command cdagviz emits Graphviz DOT renderings of the paper's graph
// objects: base graphs, meta-vertices, routing chains, and segments.
//
// Usage:
//
//	cdagviz -fig base -alg strassen            # Figure 1
//	cdagviz -fig meta -alg strassen -r 2       # Figure 2
//	cdagviz -fig chain -alg strassen -r 2      # Figures 3/4
//	cdagviz -fig h -alg strassen               # Figure 8
//	cdagviz -fig g1circle -alg strassen        # Figure 9
//	cdagviz -fig lemma4                        # Figure 6 (ASCII)
package main

import (
	"flag"
	"fmt"
	"os"

	"pathrouting/internal/bilinear"
	"pathrouting/internal/cdag"
	"pathrouting/internal/routing"
	"pathrouting/internal/viz"
)

var (
	fig     = flag.String("fig", "base", "figure: base, meta, chain, h, g1circle, lemma4")
	algName = flag.String("alg", "strassen", "algorithm name from the catalog")
	r       = flag.Int("r", 2, "recursion depth where applicable")
)

func fail(err error) {
	fmt.Fprintln(os.Stderr, "error:", err)
	os.Exit(1)
}

func main() {
	flag.Parse()
	alg, err := bilinear.ByName(*algName)
	if err != nil {
		fail(err)
	}
	switch *fig {
	case "base":
		fmt.Print(viz.BaseGraphDOT(alg))
	case "meta":
		g, err := cdag.New(alg, *r)
		if err != nil {
			fail(err)
		}
		for v := cdag.V(0); int(v) < g.NumVertices(); v++ {
			if g.IsCopy(v) {
				fmt.Print(viz.MetaVertexDOT(g, g.MetaRoot(v)))
				return
			}
		}
		fail(fmt.Errorf("%s G_%d has no copy vertices", alg.Name, *r))
	case "chain":
		g, err := cdag.New(alg, *r)
		if err != nil {
			fail(err)
		}
		rt, err := routing.NewRouter(g)
		if err != nil {
			fail(err)
		}
		chain, ok := rt.AppendChain(bilinear.SideA, 1, 0, nil)
		if !ok {
			fail(fmt.Errorf("dependency (1,0) not guaranteed"))
		}
		fmt.Print(viz.PathDOT(g, chain, "guaranteed-dependency chain"))
	case "h":
		fmt.Print(viz.HGraphDOT(alg, bilinear.SideA, 1, 0))
	case "g1circle":
		fmt.Print(viz.G1CircleDOT(alg, 1, []int{0, 1, 3}))
	case "lemma4":
		fmt.Print(viz.Lemma4ASCII(4, 0, 1, 2, 3))
	default:
		fail(fmt.Errorf("unknown figure %q", *fig))
	}
}
