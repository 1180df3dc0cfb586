package main

import (
	"context"
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"stanoise/internal/cell"
	"stanoise/internal/charstore"
	"stanoise/internal/sna"
)

// recorder keeps the spans of a traced run in memory and writes them out as
// Chrome trace-event JSON when the run ends. Spans are taken only from the
// benchmark's own code, around calls into the program's layers. A nil
// recorder, or one switched off, records nothing, so the same code path
// serves traced and untraced passes.
type recorder struct {
	start time.Time
	on    atomic.Bool

	mu     sync.Mutex
	events []traceEvent
	busy   map[string]time.Duration // summed span time by span name
	tids   map[string]int           // track name → Chrome thread id
	lanes  map[string][]bool        // track → which lanes hold an open span
}

// traceEvent is one Chrome trace-event record ("X" complete events only).
type traceEvent struct {
	Name string         `json:"name"`
	Cat  string         `json:"cat"`
	Ph   string         `json:"ph"`
	TS   float64        `json:"ts"`
	Dur  float64        `json:"dur"`
	PID  int            `json:"pid"`
	TID  int            `json:"tid"`
	Args map[string]any `json:"args,omitempty"`
}

func newRecorder() *recorder {
	return &recorder{start: time.Now(), busy: map[string]time.Duration{}, tids: map[string]int{}, lanes: map[string][]bool{}}
}

// enable switches recording on or off.
func (r *recorder) enable(on bool) {
	if r != nil {
		r.on.Store(on)
	}
}

func (r *recorder) active() bool { return r != nil && r.on.Load() }

// add records a finished span on the named track.
func (r *recorder) add(track, name string, start time.Time, dur time.Duration, args map[string]any) {
	if !r.active() {
		return
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	r.addLocked(track, name, start, dur, args)
}

func (r *recorder) addLocked(track, name string, start time.Time, dur time.Duration, args map[string]any) {
	tid, ok := r.tids[track]
	if !ok {
		tid = len(r.tids) + 1
		r.tids[track] = tid
	}
	r.busy[name] += dur
	r.events = append(r.events, traceEvent{
		Name: name, Cat: track, Ph: "X", PID: 1, TID: tid, Args: args,
		TS:  float64(start.Sub(r.start).Nanoseconds()) / 1e3,
		Dur: float64(dur.Nanoseconds()) / 1e3,
	})
}

// begin opens a span on the first free lane of the track (so concurrent
// spans of one kind never overlap on a row) and returns the function that
// closes it.
func (r *recorder) begin(track, name string) func(args map[string]any) {
	if !r.active() {
		return func(map[string]any) {}
	}
	r.mu.Lock()
	lanes := r.lanes[track]
	lane := 0
	for lane < len(lanes) && lanes[lane] {
		lane++
	}
	if lane == len(lanes) {
		lanes = append(lanes, false)
	}
	lanes[lane] = true
	r.lanes[track] = lanes
	r.mu.Unlock()
	start := time.Now()
	return func(args map[string]any) {
		dur := time.Since(start)
		r.mu.Lock()
		defer r.mu.Unlock()
		r.lanes[track][lane] = false
		r.addLocked(fmt.Sprintf("%s/%d", track, lane), name, start, dur, args)
	}
}

// busyTime is the summed duration of every span with the given name.
func (r *recorder) busyTime(name string) time.Duration {
	if r == nil {
		return 0
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.busy[name]
}

// writeChrome writes the spans as a Chrome trace-event document, viewable
// in Perfetto or chrome://tracing, with one named row per track.
func (r *recorder) writeChrome(path string) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	events := make([]any, 0, len(r.events)+len(r.tids))
	names := make([]string, 0, len(r.tids))
	for track := range r.tids {
		names = append(names, track)
	}
	sort.Strings(names)
	for _, track := range names {
		events = append(events, map[string]any{
			"name": "thread_name", "ph": "M", "pid": 1, "tid": r.tids[track],
			"args": map[string]string{"name": track},
		})
	}
	for _, e := range r.events {
		events = append(events, e)
	}
	b, err := json.Marshal(map[string]any{"traceEvents": events, "displayTimeUnit": "ms"})
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}

// stageSpans lays the per-stage durations a report carries end to end from
// the cluster's start, as child spans of that cluster. The program reports
// the two feasibility phases as one total, so it is drawn after evaluation.
func stageSpans(r *recorder, track string, start time.Time, rep *sna.NetReport) {
	t := rep.Timing
	args := map[string]any{"cluster": rep.Cluster}
	for _, s := range []struct {
		name string
		d    time.Duration
	}{
		{"sna.build", t.Build}, {"core.models", t.Models}, {"core.align", t.Align},
		{"core.eval", t.Eval}, {"feas.stage", t.Feas}, {"nrc.stage", t.NRC},
	} {
		if s.d > 0 {
			r.add(track, s.name, start, s.d, args)
			start = start.Add(s.d)
		}
	}
}

// tracedGate wraps the analyzer's cluster gate: its Acquire and Release
// bracket every cluster, so each bracket becomes a cluster span. Gate
// releases carry no identity, so spans are closed in acquisition order;
// with one worker that pairing is exact, with several only the summed time
// is.
type tracedGate struct {
	sna.Gate
	rec *recorder

	mu     sync.Mutex
	open   []func(map[string]any)
	starts []time.Time // start of every cluster span, in acquisition order
}

func newTracedGate(workers int, rec *recorder) *tracedGate {
	return &tracedGate{Gate: sna.NewGate(workers), rec: rec}
}

// Acquire implements sna.Gate.
func (g *tracedGate) Acquire(ctx context.Context) error {
	if err := g.Gate.Acquire(ctx); err != nil {
		return err
	}
	end := g.rec.begin("cluster", "sna.cluster")
	g.mu.Lock()
	g.open = append(g.open, end)
	g.starts = append(g.starts, time.Now())
	g.mu.Unlock()
	return nil
}

// Release implements sna.Gate.
func (g *tracedGate) Release() {
	g.mu.Lock()
	end := g.open[0]
	g.open = g.open[1:]
	g.mu.Unlock()
	end(nil)
	g.Gate.Release()
}

// takeStarts returns and forgets the cluster start times seen so far.
func (g *tracedGate) takeStarts() []time.Time {
	g.mu.Lock()
	defer g.mu.Unlock()
	s := g.starts
	g.starts = nil
	return s
}

// storeProbe decorates the characterisation store (a charlib.LeaseStore)
// to count and time every Get, Put and build-lease wait, and to measure
// each artefact from its first lookup to its write — the build latency of
// one artefact as the farm sees it.
type storeProbe struct {
	*charstore.Store
	rec *recorder

	gets, hits, puts atomic.Int64

	mu      sync.Mutex
	pending map[string]time.Time
	builtMs []float64
}

func newStoreProbe(s *charstore.Store, rec *recorder) *storeProbe {
	return &storeProbe{Store: s, rec: rec, pending: map[string]time.Time{}}
}

func artefactID(kind string, cl *cell.Cell, st cell.State, pin, optsFP string) string {
	return kind + "|" + cl.Tech.FullName() + "|" + cl.Name() + "|" + st.String() + "|" + pin + "|" + optsFP
}

// Get implements charlib.PersistentStore.
func (p *storeProbe) Get(kind string, cl *cell.Cell, st cell.State, pin, optsFP string) (any, bool) {
	id := artefactID(kind, cl, st, pin, optsFP)
	p.mu.Lock()
	if _, ok := p.pending[id]; !ok {
		p.pending[id] = time.Now()
	}
	p.mu.Unlock()
	end := p.rec.begin("charstore", "charstore.get")
	v, ok := p.Store.Get(kind, cl, st, pin, optsFP)
	end(map[string]any{"kind": kind, "cell": cl.Name(), "hit": ok})
	p.gets.Add(1)
	if ok {
		p.hits.Add(1)
	}
	return v, ok
}

// Put implements charlib.PersistentStore.
func (p *storeProbe) Put(kind string, cl *cell.Cell, st cell.State, pin, optsFP string, v any) error {
	end := p.rec.begin("charstore", "charstore.put")
	err := p.Store.Put(kind, cl, st, pin, optsFP, v)
	end(map[string]any{"kind": kind, "cell": cl.Name()})
	p.puts.Add(1)
	id := artefactID(kind, cl, st, pin, optsFP)
	p.mu.Lock()
	if t0, ok := p.pending[id]; ok {
		p.builtMs = append(p.builtMs, float64(time.Since(t0).Nanoseconds())/1e6)
		delete(p.pending, id)
	}
	p.mu.Unlock()
	return err
}

// AcquireBuildLease implements charlib.LeaseStore.
func (p *storeProbe) AcquireBuildLease(ctx context.Context, kind string, cl *cell.Cell, st cell.State, pin, optsFP string) (func(), error) {
	end := p.rec.begin("charstore", "charstore.lease_wait")
	release, err := p.Store.AcquireBuildLease(ctx, kind, cl, st, pin, optsFP)
	end(map[string]any{"kind": kind, "cell": cl.Name()})
	return release, err
}
