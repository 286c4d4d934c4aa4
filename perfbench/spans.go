package main

import (
	"sort"
	"sync"
	"time"

	"repro/internal/core"
)

// span is one timed call into a layer. Spans that share op belong to one
// operation; parent is the index of the enclosing span, or -1.
type span struct {
	name       string
	start, end time.Time
	parent     int
	op         int
	events     uint64
}

// spans records spans in memory; they are read out when the replay ends.
// A nil *spans records nothing, which is how the untraced half of a
// replay runs the same code without tracing.
type spans struct {
	mu   sync.Mutex
	list []span
	ops  int
}

// op opens the root span of a new operation.
func (s *spans) op(name string) int {
	if s == nil {
		return -1
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	s.ops++
	s.list = append(s.list, span{name: name, start: time.Now(), parent: -1, op: s.ops})
	return len(s.list) - 1
}

// begin opens a span under parent (a span index, or -1 for none).
func (s *spans) begin(name string, parent int) int {
	if s == nil {
		return -1
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	op := 0
	if parent >= 0 {
		op = s.list[parent].op
	}
	s.list = append(s.list, span{name: name, start: time.Now(), parent: parent, op: op})
	return len(s.list) - 1
}

func (s *spans) end(id int) {
	if s == nil || id < 0 {
		return
	}
	now := time.Now()
	s.mu.Lock()
	s.list[id].end = now
	s.mu.Unlock()
}

// endEvents closes a core.run span and records the run's event count.
func (s *spans) endEvents(id int, res *core.Result) {
	if s == nil || id < 0 {
		return
	}
	now := time.Now()
	s.mu.Lock()
	s.list[id].end = now
	if res != nil {
		s.list[id].events = res.Events
	}
	s.mu.Unlock()
}

// selfTimes returns each span's duration minus the part of it that its
// children cover. Concurrent children are merged, so overlapping child
// time is subtracted once.
func (s *spans) selfTimes() []time.Duration {
	children := make([][]int, len(s.list))
	for i, sp := range s.list {
		if sp.parent >= 0 {
			children[sp.parent] = append(children[sp.parent], i)
		}
	}
	self := make([]time.Duration, len(s.list))
	for i, sp := range s.list {
		self[i] = sp.end.Sub(sp.start) - covered(s.list, children[i], sp.start, sp.end)
	}
	return self
}

// covered returns the length of the union of the child intervals,
// clipped to [lo, hi].
func covered(list []span, kids []int, lo, hi time.Time) time.Duration {
	if len(kids) == 0 {
		return 0
	}
	iv := make([][2]time.Time, 0, len(kids))
	for _, k := range kids {
		a, b := list[k].start, list[k].end
		if a.Before(lo) {
			a = lo
		}
		if b.After(hi) {
			b = hi
		}
		if b.After(a) {
			iv = append(iv, [2]time.Time{a, b})
		}
	}
	sort.Slice(iv, func(i, j int) bool { return iv[i][0].Before(iv[j][0]) })
	var total time.Duration
	var curA, curB time.Time
	for i, v := range iv {
		if i == 0 || v[0].After(curB) {
			total += curB.Sub(curA)
			curA, curB = v[0], v[1]
			continue
		}
		if v[1].After(curB) {
			curB = v[1]
		}
	}
	return total + curB.Sub(curA)
}

// layerStat aggregates the spans of one name.
type layerStat struct {
	n      int
	total  time.Duration // sum of durations
	events uint64
}

// byName aggregates spans per name.
func (s *spans) byName() map[string]*layerStat {
	out := map[string]*layerStat{}
	for _, sp := range s.list {
		st := out[sp.name]
		if st == nil {
			st = &layerStat{}
			out[sp.name] = st
		}
		st.n++
		st.total += sp.end.Sub(sp.start)
		st.events += sp.events
	}
	return out
}

// meanMs is the mean duration of the named spans in milliseconds, or 0
// when there are none.
func meanMs(m map[string]*layerStat, name string) float64 {
	st := m[name]
	if st == nil || st.n == 0 {
		return 0
	}
	return ms(st.total) / float64(st.n)
}

// unaccountedMs is the mean self time of the root operation spans: the
// part of an operation that no layer span covers.
func (s *spans) unaccountedMs() float64 {
	self := s.selfTimes()
	var sum time.Duration
	n := 0
	for i, sp := range s.list {
		if sp.parent < 0 && sp.op > 0 {
			sum += self[i]
			n++
		}
	}
	if n == 0 {
		return 0
	}
	return ms(sum) / float64(n)
}
