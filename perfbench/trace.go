package main

import (
	"encoding/json"
	"os"
	"sort"
	"sync"
	"time"
)

// span is one recorded interval around a call into a layer. Spans of one
// request share Req; Parent is the smallest span of the same request that
// encloses this one (every traced call is synchronous, so enclosure is
// causation), assigned when the trace is analysed.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"` // -1: a root span
	Req    int64  `json:"req"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"` // since the tracer's epoch
	End    int64  `json:"end_ns"`
	// Self is End-Start minus the part of the interval covered by child
	// spans.
	Self int64 `json:"self_ns"`
}

// tracer keeps spans in memory until the run ends. A nil *tracer is the
// untraced run: every method is a no-op, so workload code calls it
// unconditionally.
type tracer struct {
	epoch    time.Time
	mu       sync.Mutex
	spans    []span
	analysed bool
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

// now returns the current trace timestamp (0 when untraced).
func (t *tracer) now() int64 {
	if t == nil {
		return 0
	}
	return int64(time.Since(t.epoch))
}

// record stores a span of request req that started at start (a value of
// now) and ends now.
func (t *tracer) record(name string, req int64, start int64) {
	if t == nil {
		return
	}
	end := t.now()
	t.mu.Lock()
	t.spans = append(t.spans, span{Req: req, Name: name, Start: start, End: end})
	t.analysed = false
	t.mu.Unlock()
}

// do runs fn inside a span.
func (t *tracer) do(name string, req int64, fn func() error) error {
	start := t.now()
	err := fn()
	t.record(name, req, start)
	return err
}

func (t *tracer) len() int {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return len(t.spans)
}

// analyse assigns IDs, parents and self times. Callers hold t.mu.
func (t *tracer) analyse() {
	if t.analysed {
		return
	}
	// Within a request, order by start and then longest first, so a
	// parent precedes its children; a stack of open spans yields each
	// span's innermost encloser.
	sort.SliceStable(t.spans, func(i, j int) bool {
		a, b := t.spans[i], t.spans[j]
		if a.Req != b.Req {
			return a.Req < b.Req
		}
		if a.Start != b.Start {
			return a.Start < b.Start
		}
		return a.End > b.End
	})
	covered := make([]int64, len(t.spans))
	var stack []int
	for i := range t.spans {
		s := &t.spans[i]
		s.ID = i
		for len(stack) > 0 {
			top := t.spans[stack[len(stack)-1]]
			if top.Req == s.Req && top.Start <= s.Start && s.End <= top.End {
				break
			}
			stack = stack[:len(stack)-1]
		}
		s.Parent = -1
		if len(stack) > 0 {
			s.Parent = stack[len(stack)-1]
			// Children of one parent are sequential calls; their covered
			// time adds up.
			covered[s.Parent] += s.End - s.Start
		}
		stack = append(stack, i)
	}
	for i := range t.spans {
		t.spans[i].Self = t.spans[i].End - t.spans[i].Start - covered[i]
	}
	t.analysed = true
}

// spanStats summarises every span of one name.
type spanStats struct {
	Count int     `json:"count"`
	Total float64 `json:"total_ns"`
	Self  float64 `json:"self_ns"`
	durs  []float64
}

// meanNs and selfNs are per-span means; medianNs the median duration.
func (s spanStats) meanNs() float64 { return s.Total / nz(float64(s.Count)) }
func (s spanStats) selfNs() float64 { return s.Self / nz(float64(s.Count)) }
func (s spanStats) medianNs() float64 {
	return median(s.durs)
}

func nz(x float64) float64 {
	if x == 0 {
		return 1
	}
	return x
}

// stats returns the per-name summaries (empty when untraced).
func (t *tracer) stats() map[string]spanStats {
	out := map[string]spanStats{}
	if t == nil {
		return out
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.analyse()
	for _, s := range t.spans {
		st := out[s.Name]
		st.Count++
		d := float64(s.End - s.Start)
		st.Total += d
		st.Self += float64(s.Self)
		st.durs = append(st.durs, d)
		out[s.Name] = st
	}
	return out
}

// writeFile writes every span plus the per-name summaries as JSON.
func (t *tracer) writeFile(path string, o *options, e env) error {
	sum := t.stats()
	t.mu.Lock()
	defer t.mu.Unlock()
	data, err := json.Marshal(struct {
		Workload string               `json:"workload"`
		Seed     uint64               `json:"seed"`
		Env      env                  `json:"env"`
		Summary  map[string]spanStats `json:"summary"`
		Spans    []span               `json:"spans"`
	}{o.workload, o.seed, e, sum, t.spans})
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}
