package obs

import (
	"context"
	"sync"
	"time"

	"pathrouting/internal/runlog"
)

// A Tracer emits completed spans as schema-2 `span` records into a
// runlog journal. A nil *Tracer is a valid no-op, mirroring the nil
// *runlog.Writer convention, so the engine threads one unconditionally.
type Tracer struct {
	w    *runlog.Writer
	base runlog.Record // tool/alg/k identity stamped onto every span
	// OnError, when non-nil, receives journal write errors (spans are
	// observability: they must never fail a verification).
	OnError func(error)
}

// NewTracer returns a tracer writing spans to w with base's identity
// fields. A nil w yields a no-op tracer (returned non-nil so callers
// can set OnError uniformly); to get the cheapest possible disabled
// path, keep the *Tracer itself nil.
func NewTracer(w *runlog.Writer, base runlog.Record) *Tracer {
	return &Tracer{w: w, base: base}
}

// WithJob returns a derived tracer whose spans additionally carry the
// job's trace identity (schema-3 `trace`/`job` fields). Empty fields
// in tc leave the base record's values in place, so a tracer already
// stamped with a trace keeps it. Nil-safe: a nil tracer stays nil, so
// the disabled path stays free.
func (t *Tracer) WithJob(tc TraceContext) *Tracer {
	if t == nil {
		return nil
	}
	base := t.base
	if tc.TraceID != "" {
		base.Trace = tc.TraceID
	}
	if tc.JobID != "" {
		base.Job = tc.JobID
	}
	return &Tracer{w: t.w, base: base, OnError: t.OnError}
}

// A Span is one named, timed section of a run. End emits it; a nil
// span (from a nil tracer) ignores every call.
type Span struct {
	t     *Tracer
	name  string
	start time.Time

	mu    sync.Mutex
	attrs map[string]string
	ended bool
}

// StartSpan begins a span named name on the tracer carried by ctx (see
// WithTracer) and returns ctx unchanged plus the span. With no tracer
// in ctx the span is nil, which is safe to use.
func StartSpan(ctx context.Context, name string) (context.Context, *Span) {
	return ctx, TracerFrom(ctx).StartSpan(name)
}

// StartSpan begins a span directly on the tracer. Nil-safe.
func (t *Tracer) StartSpan(name string) *Span {
	if t == nil || t.w == nil {
		return nil
	}
	return &Span{t: t, name: name, start: time.Now()}
}

// SetAttr attaches a key/value attribute to the span. Nil-safe and
// concurrency-safe; attributes set after End are dropped.
func (s *Span) SetAttr(key, value string) {
	if s == nil {
		return
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.ended {
		return
	}
	if s.attrs == nil {
		s.attrs = make(map[string]string, 4)
	}
	s.attrs[key] = value
}

// End emits the span record (start time, duration, attributes) into
// the journal. Safe on nil and idempotent.
func (s *Span) End() {
	if s == nil {
		return
	}
	s.mu.Lock()
	if s.ended {
		s.mu.Unlock()
		return
	}
	s.ended = true
	attrs := s.attrs
	s.mu.Unlock()

	rec := s.t.base
	rec.Event = runlog.EventSpan
	rec.Span = s.name
	rec.SpanStart = s.start.UTC().Format(time.RFC3339Nano)
	rec.DurSec = time.Since(s.start).Seconds()
	rec.Attrs = attrs
	if err := s.t.w.Emit(rec); err != nil && s.t.OnError != nil {
		s.t.OnError(err)
	}
}

// tracerKey carries the ambient *Tracer in a context.
type tracerKey struct{}

// WithTracer returns a context carrying t for StartSpan.
func WithTracer(ctx context.Context, t *Tracer) context.Context {
	return context.WithValue(ctx, tracerKey{}, t)
}

// TracerFrom extracts the context's tracer, or nil.
func TracerFrom(ctx context.Context) *Tracer {
	t, _ := ctx.Value(tracerKey{}).(*Tracer)
	return t
}

// StartHeartbeat launches a goroutine emitting a schema-2 `heartbeat`
// record carrying reg's metric snapshot — and, since schema 4, a
// compact process resource snapshot (heap, goroutines, GC, CPU) — into
// w every interval, until the returned stop function is called (stop
// emits one final heartbeat, so the journal always records the end
// state). onBeat, when non-nil, runs after every heartbeat record (the
// service publishes its SSE heartbeat event there). A nil w is a valid
// sink, so a hook alone still beats; a non-positive interval, or a nil
// w with a nil hook, yields a no-op stop.
func StartHeartbeat(w *runlog.Writer, base runlog.Record, reg *Registry, interval time.Duration, onBeat func()) (stop func()) {
	if interval <= 0 || (w == nil && onBeat == nil) {
		return func() {}
	}
	emit := func() {
		rec := base
		rec.Event = runlog.EventHeartbeat
		rec.Metrics = reg.Snapshot()
		rec.Resources = ReadResources().Runlog()
		_ = w.Emit(rec) // heartbeats are best-effort liveness
		if onBeat != nil {
			onBeat()
		}
	}
	done := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		t := time.NewTicker(interval)
		defer t.Stop()
		for {
			select {
			case <-t.C:
				emit()
			case <-done:
				return
			}
		}
	}()
	var once sync.Once
	return func() {
		once.Do(func() {
			close(done)
			wg.Wait()
			emit()
		})
	}
}
