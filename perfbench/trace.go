package main

import (
	"bufio"
	"fmt"
	"os"
	"time"
)

// span is one timed call the benchmark made into a layer's public API.
// Times are host nanoseconds since the tracer's epoch; parent indexes the
// enclosing span (-1 at the root) and op is the workload operation the
// call served (-1 outside any operation, e.g. set-up).
type span struct {
	name       string
	start, end int64
	parent     int32
	op         int32
}

// tracer keeps spans in memory for one repetition.  A nil *tracer is the
// untraced run: every method is a no-op, so the measured code is the same
// in both runs and only the clock reads differ.
type tracer struct {
	epoch time.Time
	spans []span
	stack []int32
	op    int32
}

func newTracer() *tracer {
	return &tracer{epoch: time.Now(), op: -1, spans: make([]span, 0, 1<<16)}
}

// begin opens a span named after the layer being called and returns its
// handle for end.
func (t *tracer) begin(name string) int32 {
	if t == nil {
		return 0
	}
	parent := int32(-1)
	if n := len(t.stack); n > 0 {
		parent = t.stack[n-1]
	}
	i := int32(len(t.spans))
	t.spans = append(t.spans, span{name: name, start: int64(time.Since(t.epoch)), parent: parent, op: t.op})
	t.stack = append(t.stack, i)
	return i
}

// end closes the span begin returned.  Spans nest strictly.
func (t *tracer) end(i int32) {
	if t == nil {
		return
	}
	t.spans[i].end = int64(time.Since(t.epoch))
	t.stack = t.stack[:len(t.stack)-1]
}

// beginOp opens the root span of workload operation op; the layer calls
// made until endOp carry its id.
func (t *tracer) beginOp(op int) int32 {
	if t == nil {
		return 0
	}
	t.op = int32(op)
	return t.begin("op")
}

func (t *tracer) endOp(i int32) {
	if t == nil {
		return
	}
	t.end(i)
	t.op = -1
}

// layerTime is one layer's aggregated host time in a traced repetition.
type layerTime struct {
	calls  int
	selfNs int64
}

// selfTimes sums, per span name, the calls and the self time: each span's
// duration minus the time its direct children cover.  Children never
// overlap one another (spans nest strictly on one goroutine), so the
// covered time is the sum of their durations.
func (t *tracer) selfTimes() map[string]layerTime {
	child := make([]int64, len(t.spans))
	for _, s := range t.spans {
		if s.parent >= 0 {
			child[s.parent] += s.end - s.start
		}
	}
	out := make(map[string]layerTime)
	for i, s := range t.spans {
		lt := out[s.name]
		lt.calls++
		lt.selfNs += s.end - s.start - child[i]
		out[s.name] = lt
	}
	return out
}

// write saves the spans as tab-separated lines: index, name, start, end,
// parent, op.
func (t *tracer) write(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	fmt.Fprintln(w, "# span\tname\tstart_ns\tend_ns\tparent\top")
	for i, s := range t.spans {
		fmt.Fprintf(w, "%d\t%s\t%d\t%d\t%d\t%d\n", i, s.name, s.start, s.end, s.parent, s.op)
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
