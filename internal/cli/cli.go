// Package cli is the run setup the verification commands routecheck
// and paperrepro share: their observability flags, the run journal,
// the metrics registry with its debug server and heartbeat, CPU and
// heap profiles flushed on every exit path, and the journaling of one
// full routing.
package cli

import (
	"errors"
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
	"sync"
	"time"

	"pathrouting/internal/obs"
	"pathrouting/internal/routing"
	"pathrouting/internal/runlog"
)

// Flags is the observability configuration of one command run.
type Flags struct {
	Journal    string        // JSONL run journal path ("" = none)
	DebugAddr  string        // debug server address ("" = none)
	DebugHold  time.Duration // keep the debug server up this long at exit
	Heartbeat  time.Duration // journal heartbeat interval (0 = off)
	CPUProfile string        // CPU profile path ("" = none)
	MemProfile string        // heap profile path, written at exit
}

// RegisterFlags defines -journal, -debugaddr, -heartbeat, -cpuprofile
// and -memprofile on the command line. DebugHold gets no flag here:
// only a command whose runs are short enough to need it defines one.
func RegisterFlags() *Flags {
	f := &Flags{}
	flag.StringVar(&f.Journal, "journal", "", "append JSONL run records to this file")
	flag.StringVar(&f.DebugAddr, "debugaddr", "", "serve /metrics, /healthz and /debug/pprof on this address (e.g. :8080)")
	flag.DurationVar(&f.Heartbeat, "heartbeat", 30*time.Second, "with -journal: interval between heartbeat records (0 = off)")
	flag.StringVar(&f.CPUProfile, "cpuprofile", "", "write a CPU profile to this file (verifier workers carry pprof labels)")
	flag.StringVar(&f.MemProfile, "memprofile", "", "write a heap profile to this file on exit")
	return f
}

// A Session is the observability state of one command run. Close, or
// Exit on an early exit, releases it; a nil *Session is valid and
// releases nothing, so a command can fail before Start.
type Session struct {
	// Reg holds every metric family of the run, the proc_* families
	// included; it backs /metrics and the heartbeats.
	Reg *obs.Registry

	journal       *runlog.Writer // nil without -journal: a no-op sink
	flags         Flags
	server        *obs.Server
	cpuFile       *os.File
	stopHeartbeat func()
	closeOnce     sync.Once
}

// Start opens the session f describes: it starts the CPU profile,
// opens the journal, starts the debug server (announcing its URL on
// stderr; health, when non-nil, renders /healthz), and starts the
// journal heartbeat stamped with heartbeat's identity.
func Start(f *Flags, heartbeat runlog.Record, health func() any) (*Session, error) {
	s := &Session{Reg: obs.NewRegistry(), flags: *f}
	obs.RegisterRuntimeMetrics(s.Reg)
	if f.CPUProfile != "" {
		file, err := os.Create(f.CPUProfile)
		if err != nil {
			return nil, err
		}
		if err := pprof.StartCPUProfile(file); err != nil {
			file.Close()
			return nil, err
		}
		s.cpuFile = file
	}
	if f.Journal != "" {
		w, err := runlog.Open(f.Journal)
		if err != nil {
			s.Close()
			return nil, err
		}
		s.journal = w
	}
	if f.DebugAddr != "" {
		srv, err := obs.StartServer(f.DebugAddr, s.Reg, health)
		if err != nil {
			s.Close()
			return nil, err
		}
		s.server = srv
		fmt.Fprintf(os.Stderr, "debug server listening on %s\n", srv.URL())
	}
	s.stopHeartbeat = obs.StartHeartbeat(s.journal, heartbeat, s.Reg, f.Heartbeat, nil)
	return s, nil
}

// Close ends the session, in order: it holds the debug server for
// DebugHold so a short run can still be scraped, writes the final
// heartbeat, stops the server, closes the journal, and flushes the CPU
// and heap profiles. Idempotent.
func (s *Session) Close() {
	if s == nil {
		return
	}
	s.closeOnce.Do(func() {
		if s.server != nil && s.flags.DebugHold > 0 {
			fmt.Fprintf(os.Stderr, "debug server held for %v\n", s.flags.DebugHold)
			time.Sleep(s.flags.DebugHold)
		}
		if s.stopHeartbeat != nil {
			s.stopHeartbeat()
		}
		s.server.Close()
		if err := s.journal.Close(); err != nil {
			fmt.Fprintln(os.Stderr, "journal:", err)
		}
		if s.cpuFile != nil {
			pprof.StopCPUProfile()
			if err := s.cpuFile.Close(); err != nil {
				fmt.Fprintln(os.Stderr, "cpuprofile:", err)
			}
		}
		if s.flags.MemProfile != "" {
			if err := writeHeapProfile(s.flags.MemProfile); err != nil {
				fmt.Fprintln(os.Stderr, "memprofile:", err)
			}
		}
	})
}

func writeHeapProfile(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	runtime.GC() // settle the heap so the profile shows live objects
	if err := pprof.WriteHeapProfile(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// Exit closes the session and exits with code. os.Exit skips deferred
// calls, so every early exit of a command goes through here; otherwise
// its CPU profile would be left empty.
func (s *Session) Exit(code int) {
	s.Close()
	os.Exit(code)
}

// Fail reports err on stderr and exits with code 1.
func (s *Session) Fail(err error) {
	fmt.Fprintln(os.Stderr, "error:", err)
	s.Exit(1)
}

// VerifyFullRouting runs r's full routing through the sharded engine
// with the session's instruments, and journals it under base's
// identity (tool, algorithm, k, workers, trace): a run_start record,
// one shard_done per completed shard (before cfg.OnShard runs), then a
// violation record when the routing fails, or else a final record,
// marked paused when the run stopped at cfg.MaxShards.
func (s *Session) VerifyFullRouting(r *routing.Router, base runlog.Record, workers int, cfg routing.CheckpointConfig) (routing.Stats, error) {
	emit := func(rec runlog.Record) {
		rec.Tool, rec.Alg, rec.K, rec.Workers, rec.Trace = base.Tool, base.Alg, base.K, base.Workers, base.Trace
		if err := s.journal.Emit(rec); err != nil {
			fmt.Fprintln(os.Stderr, "journal:", err)
		}
	}
	r.Obs = routing.NewInstruments(s.Reg)
	r.Obs.Tracer = obs.NewTracer(s.journal, base)
	emit(runlog.Record{Event: runlog.EventRunStart, Resumed: cfg.Resume})
	onShard := cfg.OnShard
	cfg.OnShard = func(d routing.ShardDone) {
		emit(runlog.Record{Event: runlog.EventShardDone,
			Shard: d.Shard, ShardsDone: d.Done, ShardsTotal: d.Total, ShardPaths: d.Paths})
		if onShard != nil {
			onShard(d)
		}
	}
	st, err := r.VerifyFullRoutingCheckpointed(workers, cfg)
	paused := errors.Is(err, routing.ErrPaused)
	if err != nil && !paused {
		emit(runlog.Record{Event: runlog.EventViolation, Error: err.Error()})
		return st, err
	}
	emit(st.FinalRecord(runlog.Record{Resumed: cfg.Resume, Paused: paused}))
	return st, err
}
