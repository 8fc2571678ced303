package main

import (
	"bufio"
	"bytes"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"time"

	"affinitycluster/internal/model"
)

// span is one timed call into a layer: name, start, end, and the index of
// the span that was open when it began (-1 for a root).
type span struct {
	Name       string
	Parent     int32
	Start, End int64
}

// tracer records spans around the benchmark's calls into the program's
// layers. Spans nest by call order on one goroutine, so the open span is
// the parent of the next one begun; goroutines running concurrently each
// get their own tracer. Spans stay in memory until write. A nil tracer
// records nothing, so untraced passes run the same code.
type tracer struct {
	epoch time.Time
	spans []span
	open  int32
}

func newTracer() *tracer { return &tracer{epoch: time.Now(), open: -1} }

func (t *tracer) begin(name string) int32 {
	if t == nil {
		return -1
	}
	t.spans = append(t.spans, span{Name: name, Parent: t.open, Start: int64(time.Since(t.epoch))})
	t.open = int32(len(t.spans) - 1)
	return t.open
}

func (t *tracer) end(id int32) {
	if t == nil {
		return
	}
	t.spans[id].End = int64(time.Since(t.epoch))
	t.open = t.spans[id].Parent
}

// layerTime is the time and call count one span name accumulated.
type layerTime struct {
	calls int
	total int64 // summed span durations, ns
	self  int64 // durations minus the time their child spans cover, ns
}

// totals aggregates the recorded spans by name.
func (t *tracer) totals() map[string]layerTime {
	child := make([]int64, len(t.spans))
	for _, s := range t.spans {
		if s.Parent >= 0 {
			child[s.Parent] += s.End - s.Start
		}
	}
	out := make(map[string]layerTime)
	for i, s := range t.spans {
		lt := out[s.Name]
		lt.calls++
		lt.total += s.End - s.Start
		lt.self += s.End - s.Start - child[i]
		out[s.Name] = lt
	}
	return out
}

// merge appends another tracer's spans, re-basing its parent indices and
// times onto this tracer's epoch.
func (t *tracer) merge(o *tracer) {
	base := int32(len(t.spans))
	shift := int64(o.epoch.Sub(t.epoch))
	for _, s := range o.spans {
		if s.Parent >= 0 {
			s.Parent += base
		}
		s.Start += shift
		s.End += shift
		t.spans = append(t.spans, s)
	}
}

// write stores the spans as tab-separated lines under a header: id,
// name, parent id (-1 for a root), and start and end in nanoseconds since
// the tracer was created.
func (t *tracer) write(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	fmt.Fprintf(w, "id\tname\tparent\tstart_ns\tend_ns\n")
	for i, s := range t.spans {
		fmt.Fprintf(w, "%d\t%s\t%d\t%d\t%d\n", i, s.Name, s.Parent, s.Start, s.End)
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// latencyGroup is the number of consecutive arrivals a replay's
// per-request host time is averaged over. The gaps between two arrivals
// come in modes: a gap holds the arrival alone, or also a departure (and,
// on paper-migrate, the planner call after it), and departures come about
// as often as arrivals. The median single gap falls in the sparse valley
// between the modes, where GC assists and cache misses that push a few
// percent of the cheap gaps across it move the median by a quarter: on
// soak-256 the 40th, 50th and 60th percentiles read 9.7, 14 and 19 µs, and
// the single-gap median spread 28% (IQR over median) across ten runs of
// one build. Averaging over sixteen arrivals merges the modes (over eight,
// paper-migrate's median still moved 14% across ten runs).
const latencyGroup = 16

// arrivalClock stamps the host time at which the simulator takes up each
// arrival, and samples the heap on the same stride.
type arrivalClock struct {
	epoch  time.Time
	stamps []int64 // host ns since epoch
	mem    *memSampler
}

func newArrivalClock(mem *memSampler) *arrivalClock {
	return &arrivalClock{epoch: time.Now(), mem: mem}
}

func (c *arrivalClock) tick() {
	c.stamps = append(c.stamps, int64(time.Since(c.epoch)))
	c.mem.op()
}

// perRequest returns the host time per request, µs, at every arrival: the
// time from taking up the arrival latencyGroup arrivals earlier to taking
// up this one, divided by latencyGroup.
func (c *arrivalClock) perRequest() []float64 {
	var out []float64
	for i := latencyGroup; i < len(c.stamps); i++ {
		out = append(out, float64(c.stamps[i]-c.stamps[i-latencyGroup])/1e3/latencyGroup)
	}
	return out
}

// traceSink is the obs trace's io.Writer: it digests the streamed JSONL
// (CRC-32C, hardware-accelerated, so the untraced run pays little for
// it) and counts events and bytes. When arrivals is set, every event of
// that kind ticks the arrival clock. With a tracer it also records each
// write as an obs.sink_write span.
type traceSink struct {
	tr       *tracer
	crc      uint32
	bytes    int64
	events   int
	arrivals []byte
	clock    *arrivalClock
}

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

func (s *traceSink) Write(p []byte) (int, error) {
	id := s.tr.begin("obs.sink_write")
	s.crc = crc32.Update(s.crc, castagnoli, p)
	s.bytes += int64(len(p))
	s.events++
	if s.arrivals != nil && bytes.Contains(p, s.arrivals) {
		s.clock.tick()
	}
	s.tr.end(id)
	return len(p), nil
}

var _ io.Writer = (*traceSink)(nil)

func (s *traceSink) digest() string {
	return fmt.Sprintf("crc32c=%08x bytes=%d events=%d", s.crc, s.bytes, s.events)
}

// tracedSource wraps the request source the simulator pulls from: each
// pull ticks the arrival clock (the simulator pulls the next request as
// it takes up the current one), and with a tracer is recorded as a
// workload.next span.
type tracedSource struct {
	src   model.RequestSource
	tr    *tracer
	clock *arrivalClock
}

func (s *tracedSource) Next() (model.TimedRequest, bool, error) {
	id := s.tr.begin("workload.next")
	r, ok, err := s.src.Next()
	s.tr.end(id)
	if ok {
		s.clock.tick()
	}
	return r, ok, err
}
