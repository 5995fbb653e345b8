package main

import (
	"bufio"
	"crypto/sha256"
	"encoding/hex"
	"io/fs"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"

	"pathrouting/internal/cdag"
)

// hitVec is the computed size of one spec's per-worker hit vectors,
// 8·|V| bytes each, next to the L2 they compete for.
type hitVec struct {
	Spec          string `json:"spec"`
	Vertices      int    `json:"vertices"`
	Workers       int    `json:"workers"`
	BytesComputed int64  `json:"bytes_computed"`
	FitsL2        bool   `json:"fits_l2_per_worker"`
}

// envStamp identifies the machine and code a result came from.
type envStamp struct {
	Workload   string   `json:"workload"`
	Seed       int64    `json:"seed"`
	Traced     bool     `json:"traced"`
	NProc      int      `json:"nproc"`
	GOMAXPROCS int      `json:"gomaxprocs"`
	CPUModel   string   `json:"cpu_model"`
	L2Bytes    int64    `json:"l2_bytes"`
	L3Bytes    int64    `json:"l3_bytes"`
	GoVersion  string   `json:"go_version"`
	Commit     string   `json:"commit"`
	HitVectors []hitVec `json:"hit_vectors"`
	// StealFrac is the share of CPU time the hypervisor took from this
	// machine while the run measured: wall times rise with it.
	StealFrac float64 `json:"steal_frac"`
}

func stamp(root string, b *bench, traced bool) (envStamp, error) {
	e := envStamp{
		Workload: b.w.name, Seed: b.seed, Traced: traced,
		NProc: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0),
		CPUModel: cpuModel(), GoVersion: runtime.Version(),
	}
	e.L2Bytes, e.L3Bytes = cacheSize(2), cacheSize(3)
	var err error
	if e.Commit, err = treeDigest(root); err != nil {
		return e, err
	}
	workers := b.workers()
	for _, s := range b.w.specs {
		alg, err := algorithm(s.Alg)
		if err != nil {
			return e, err
		}
		g, err := cdag.New(alg, s.K)
		if err != nil {
			return e, err
		}
		n := int64(g.NumVertices())
		e.HitVectors = append(e.HitVectors, hitVec{Spec: s.key(), Vertices: g.NumVertices(),
			Workers: workers, BytesComputed: 8 * n * int64(workers), FitsL2: 8*n <= e.L2Bytes})
	}
	return e, nil
}

func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// cacheSize reads the size of CPU 0's unified or data cache at level
// from sysfs (0 when unknown).
func cacheSize(level int) int64 {
	dirs, _ := filepath.Glob("/sys/devices/system/cpu/cpu0/cache/index*")
	for _, d := range dirs {
		read := func(f string) string {
			b, _ := os.ReadFile(filepath.Join(d, f))
			return strings.TrimSpace(string(b))
		}
		if read("level") != strconv.Itoa(level) || read("type") == "Instruction" {
			continue
		}
		size := read("size")
		mult := int64(1)
		switch {
		case strings.HasSuffix(size, "K"):
			mult, size = 1<<10, strings.TrimSuffix(size, "K")
		case strings.HasSuffix(size, "M"):
			mult, size = 1<<20, strings.TrimSuffix(size, "M")
		}
		n, err := strconv.ParseInt(size, 10, 64)
		if err == nil {
			return n * mult
		}
	}
	return 0
}

// treeDigest identifies the code under test when the checkout is not a
// git repository: a SHA-256 over the paths and contents of every
// regular file outside hidden directories.
func treeDigest(root string) (string, error) {
	h := sha256.New()
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() && path != root && strings.HasPrefix(d.Name(), ".") {
			return filepath.SkipDir
		}
		if !d.Type().IsRegular() {
			return nil
		}
		body, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		rel, _ := filepath.Rel(root, path)
		h.Write([]byte(rel + "\x00"))
		h.Write(body)
		return nil
	})
	if err != nil {
		return "", err
	}
	return "tree-sha256:" + hex.EncodeToString(h.Sum(nil))[:16], nil
}

// cpuTicks returns the machine's stolen and total CPU ticks from
// /proc/stat (zeros when unavailable).
func cpuTicks() (steal, total uint64) {
	body, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0, 0
	}
	line, _, _ := strings.Cut(string(body), "\n")
	fields := strings.Fields(line)
	if len(fields) < 9 || fields[0] != "cpu" {
		return 0, 0
	}
	for i, f := range fields[1:] {
		n, _ := strconv.ParseUint(f, 10, 64)
		if i < 8 { // user … steal; guest time is already inside user
			total += n
		}
		if i == 7 {
			steal = n
		}
	}
	return steal, total
}
