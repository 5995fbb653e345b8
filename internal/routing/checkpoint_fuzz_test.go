package routing

// FuzzLoadCheckpoint feeds arbitrary bytes to the checkpoint loader and
// to a resume over them: a checkpoint is untrusted input (a crashed
// daemon's data dir, a copied file), so no file may panic the engine —
// only load, run to a result, or fail with an error. The seed corpus is
// every checked-in testdata/*.ckpt: version-1 and version-2 files
// written by real runs, and the inconsistent DoneCount file that used
// to panic resume. Under plain `go test` only the seeds run;
// `go test -run xxx -fuzz FuzzLoadCheckpoint ./internal/routing`
// explores further.

import (
	"os"
	"path/filepath"
	"testing"

	"pathrouting/internal/bilinear"
)

func FuzzLoadCheckpoint(f *testing.F) {
	seeds, err := filepath.Glob(filepath.Join("testdata", "*.ckpt"))
	if err != nil || len(seeds) == 0 {
		f.Fatalf("no seed checkpoints in testdata (%v)", err)
	}
	for _, s := range seeds {
		b, err := os.ReadFile(s)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(b)
	}
	r := mustRouter(f, bilinear.Strassen(), 2)
	r.OrbitReduction = true
	f.Fuzz(func(t *testing.T, data []byte) {
		path := filepath.Join(t.TempDir(), "fuzz.ckpt")
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		if c, err := LoadCheckpoint(path); err == nil && len(c.Meta) != c.NumVertices {
			t.Fatalf("loaded checkpoint not in dense form: %d meta counters for %d vertices", len(c.Meta), c.NumVertices)
		}
		r.VerifyFullRoutingCheckpointed(2, CheckpointConfig{Path: path, Resume: true})
	})
}
