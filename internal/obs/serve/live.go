package serve

import (
	"sort"
	"sync"
	"time"

	"transit/internal/obs"
)

// MCLive is the model checker's live gauge set, fed by mc.progress
// heartbeat marks and finalized by the closing mc.bfs span.
type MCLive struct {
	States       int64   `json:"states"`
	Transitions  int64   `json:"transitions"`
	Queue        int64   `json:"queue"`
	Depth        int64   `json:"depth"`
	StatesPerSec float64 `json:"states_per_sec"`
	// FrontierDepth is the BFS depth the frontier workers are expanding
	// right now (heartbeats) or finished at (final span).
	FrontierDepth int64 `json:"frontier_depth"`
	// CanonicalStates and ReductionFactor describe symmetry reduction on
	// the finished check: canonical representatives explored and the mean
	// PID-orbit size each one stands for (1.0 when reduction was off).
	CanonicalStates int64   `json:"canonical_states"`
	ReductionFactor float64 `json:"reduction_factor"`
	Done            bool    `json:"done"`
	UpdatedMS       float64 `json:"updated_ms"`
}

// SynthLive is one display track's (engine worker's) live synthesis
// gauges: the CEGIS round in flight (synth.round marks) and the
// enumeration tier it is grinding through (synth.tier marks).
type SynthLive struct {
	Track            int     `json:"track"`
	Iteration        int64   `json:"cegis_iteration"`
	ConcreteExamples int64   `json:"concrete_examples"`
	Tier             int64   `json:"tier"`
	Enumerated       int64   `json:"candidates"`
	UpdatedMS        float64 `json:"updated_ms"`
}

// RunLive is one in-flight engine Run, opened by its engine.run.start
// mark and retired when its engine.run span closes: the jobs planned,
// the jobs whose engine.job span closed so far (Failed of them with an
// error), and the jobs executing now. Skipped jobs never start, so they
// never count as done.
type RunLive struct {
	Run       uint64    `json:"run"`
	Workers   int64     `json:"workers"`
	Jobs      int64     `json:"jobs"`
	Done      int64     `json:"done"`
	Failed    int64     `json:"failed"`
	ElapsedMS float64   `json:"elapsed_ms"`
	Active    []JobLive `json:"active,omitempty"`
}

// JobLive is one executing engine job, opened by its engine.job.start
// mark: label, kind, display track (the worker) and time since it
// started.
type JobLive struct {
	Job       string  `json:"job"`
	Kind      string  `json:"kind"`
	Track     int     `json:"track"`
	ElapsedMS float64 `json:"elapsed_ms"`
}

// runEntry and jobEntry are the aggregator's open runs and jobs, keyed by
// their span IDs.
type runEntry struct {
	RunLive
	started time.Time
}

type jobEntry struct {
	JobLive
	run     uint64
	started time.Time
}

// Live aggregates the instant marks and span closes that matter for the
// /runs view into a point-in-time gauge set. It implements obs.Exporter
// and keeps state proportional to what is running: the open engine runs
// and jobs, per-track synthesis gauges, and one model checker entry.
type Live struct {
	mu     sync.Mutex
	epoch  time.Time
	mc     *MCLive
	tracks map[int]*SynthLive
	runs   map[uint64]*runEntry
	jobs   map[uint64]*jobEntry
}

// NewLive builds an empty aggregator.
func NewLive() *Live {
	return &Live{epoch: time.Now(), tracks: map[int]*SynthLive{},
		runs: map[uint64]*runEntry{}, jobs: map[uint64]*jobEntry{}}
}

// SetEpoch aligns UpdatedMS timestamps with the tracer's clock.
func (l *Live) SetEpoch(t time.Time) { l.epoch = t }

func attrInt(attrs []obs.Attr, key string) (int64, bool) {
	for _, a := range attrs {
		if a.Key == key {
			if v, ok := a.Value.(int64); ok {
				return v, true
			}
		}
	}
	return 0, false
}

func attrStr(attrs []obs.Attr, key string) string {
	for _, a := range attrs {
		if a.Key == key {
			if v, ok := a.Value.(string); ok {
				return v
			}
		}
	}
	return ""
}

func attrFloat(attrs []obs.Attr, key string) (float64, bool) {
	for _, a := range attrs {
		if a.Key == key {
			if v, ok := a.Value.(float64); ok {
				return v, true
			}
		}
	}
	return 0, false
}

func (l *Live) track(n int) *SynthLive {
	t := l.tracks[n]
	if t == nil {
		t = &SynthLive{Track: n}
		l.tracks[n] = t
	}
	return t
}

func (l *Live) now(start time.Time) float64 {
	return float64(start.Sub(l.epoch)) / float64(time.Millisecond)
}

// Mark implements obs.Exporter: engine.run.start and engine.job.start
// open a run and a job (each names its span by the mark's parent),
// mc.progress feeds the model-checker gauges, synth.round and synth.tier
// the per-track synthesis gauges.
func (l *Live) Mark(d obs.SpanData) {
	switch d.Name {
	case "engine.run.start":
		r := &runEntry{RunLive: RunLive{Run: d.Parent}, started: d.Start}
		r.Workers, _ = attrInt(d.Attrs, "workers")
		r.Jobs, _ = attrInt(d.Attrs, "jobs")
		l.mu.Lock()
		l.runs[d.Parent] = r
		l.mu.Unlock()
	case "engine.job.start":
		j := &jobEntry{JobLive: JobLive{Job: attrStr(d.Attrs, "job"), Kind: attrStr(d.Attrs, "kind"),
			Track: d.Track}, started: d.Start}
		run, _ := attrInt(d.Attrs, "run")
		j.run = uint64(run)
		l.mu.Lock()
		l.jobs[d.Parent] = j
		l.mu.Unlock()
	case "mc.progress":
		l.mu.Lock()
		mc := &MCLive{UpdatedMS: l.now(d.Start)}
		mc.States, _ = attrInt(d.Attrs, "states")
		mc.Transitions, _ = attrInt(d.Attrs, "transitions")
		mc.Queue, _ = attrInt(d.Attrs, "queue")
		mc.Depth, _ = attrInt(d.Attrs, "depth")
		mc.StatesPerSec, _ = attrFloat(d.Attrs, "states_per_sec")
		mc.FrontierDepth, _ = attrInt(d.Attrs, "frontier_depth")
		l.mc = mc
		l.mu.Unlock()
	case "synth.round":
		l.mu.Lock()
		t := l.track(d.Track)
		t.Iteration, _ = attrInt(d.Attrs, "iteration")
		t.ConcreteExamples, _ = attrInt(d.Attrs, "concrete_examples")
		t.Tier, t.Enumerated = 0, 0 // a new round restarts the tier climb
		t.UpdatedMS = l.now(d.Start)
		l.mu.Unlock()
	case "synth.tier":
		l.mu.Lock()
		t := l.track(d.Track)
		t.Tier, _ = attrInt(d.Attrs, "size")
		t.Enumerated, _ = attrInt(d.Attrs, "enumerated")
		t.UpdatedMS = l.now(d.Start)
		l.mu.Unlock()
	}
}

// Span implements obs.Exporter: a closing engine.job retires the job and
// its track's gauges and counts it done (failed with an error attribute)
// on its run, a closing engine.run retires the run, and a closing mc.bfs
// marks the checker done with final totals.
func (l *Live) Span(d obs.SpanData) {
	switch d.Name {
	case "engine.job":
		l.mu.Lock()
		delete(l.tracks, d.Track)
		if j := l.jobs[d.ID]; j != nil {
			delete(l.jobs, d.ID)
			if r := l.runs[j.run]; r != nil {
				r.Done++
				if attrStr(d.Attrs, "error") != "" {
					r.Failed++
				}
			}
		}
		l.mu.Unlock()
	case "engine.run":
		l.mu.Lock()
		delete(l.runs, d.ID)
		l.mu.Unlock()
	case "mc.bfs":
		l.mu.Lock()
		mc := &MCLive{Done: true, UpdatedMS: l.now(d.Start.Add(d.Duration))}
		mc.States, _ = attrInt(d.Attrs, "states")
		mc.Transitions, _ = attrInt(d.Attrs, "transitions")
		mc.Depth, _ = attrInt(d.Attrs, "depth")
		mc.StatesPerSec, _ = attrFloat(d.Attrs, "states_per_sec")
		mc.FrontierDepth = mc.Depth
		mc.CanonicalStates, _ = attrInt(d.Attrs, "canonical_states")
		mc.ReductionFactor, _ = attrFloat(d.Attrs, "reduction_factor")
		l.mc = mc
		l.mu.Unlock()
	}
}

// Flush implements obs.Exporter (nothing to finalize).
func (l *Live) Flush() error { return nil }

// Snapshot copies the current gauges: the model checker entry (nil if no
// check ran yet) and the per-track synthesis entries sorted by track.
func (l *Live) Snapshot() (*MCLive, []SynthLive) {
	l.mu.Lock()
	defer l.mu.Unlock()
	var mc *MCLive
	if l.mc != nil {
		c := *l.mc
		mc = &c
	}
	tracks := make([]SynthLive, 0, len(l.tracks))
	for _, t := range l.tracks {
		tracks = append(tracks, *t)
	}
	sort.Slice(tracks, func(i, j int) bool { return tracks[i].Track < tracks[j].Track })
	return mc, tracks
}

// Runs copies the in-flight engine runs, oldest first, each with its
// executing jobs sorted by track; an empty (non-nil) slice when no engine
// is running.
func (l *Live) Runs() []RunLive {
	now := time.Now()
	l.mu.Lock()
	defer l.mu.Unlock()
	runs := make([]RunLive, 0, len(l.runs))
	for _, r := range l.runs {
		st := r.RunLive
		st.ElapsedMS = msSince(r.started, now)
		for _, j := range l.jobs {
			if j.run == r.Run {
				jl := j.JobLive
				jl.ElapsedMS = msSince(j.started, now)
				st.Active = append(st.Active, jl)
			}
		}
		sort.Slice(st.Active, func(a, b int) bool { return st.Active[a].Track < st.Active[b].Track })
		runs = append(runs, st)
	}
	sort.Slice(runs, func(a, b int) bool { return runs[a].Run < runs[b].Run })
	return runs
}

func msSince(t, now time.Time) float64 { return float64(now.Sub(t)) / float64(time.Millisecond) }
