package main

import (
	"bufio"
	"os"
	"strconv"
	"sync"
	"time"
)

// span is one timed call into a layer. Spans of one rung share the rung's
// span as parent; the rungs share the run's root.
type span struct {
	id, parent uint32
	name       string
	start, end int64 // ns since the trace began
}

// tracer keeps spans in memory and writes them out once, at the end. A nil
// tracer records nothing, so the untraced run executes the same code.
type tracer struct {
	t0    time.Time
	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// add records a finished span and returns its id.
func (t *tracer) add(parent uint32, name string, start, end time.Time) uint32 {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	id := uint32(len(t.spans) + 1)
	t.spans = append(t.spans, span{id, parent, name, int64(start.Sub(t.t0)), int64(end.Sub(t.t0))})
	t.mu.Unlock()
	return id
}

// open records a span whose end is not known yet; close sets it.
func (t *tracer) open(parent uint32, name string) uint32 {
	now := time.Now()
	return t.add(parent, name, now, now)
}

func (t *tracer) close(id uint32) {
	if t == nil {
		return
	}
	end := int64(time.Since(t.t0))
	t.mu.Lock()
	t.spans[id-1].end = end
	t.mu.Unlock()
}

// write stores the spans as {"workload":…,"spans":[{id,parent,name,start,end}…]},
// times in ns since the trace began.
func (t *tracer) write(path, workload string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriterSize(f, 1<<20)
	w.WriteString(`{"workload":` + strconv.Quote(workload) + `,"unit":"ns","spans":[` + "\n")
	buf := make([]byte, 0, 128)
	for i, s := range t.spans {
		buf = append(buf[:0], `{"id":`...)
		buf = strconv.AppendUint(buf, uint64(s.id), 10)
		buf = append(buf, `,"parent":`...)
		buf = strconv.AppendUint(buf, uint64(s.parent), 10)
		buf = append(buf, `,"name":`...)
		buf = strconv.AppendQuote(buf, s.name)
		buf = append(buf, `,"start":`...)
		buf = strconv.AppendInt(buf, s.start, 10)
		buf = append(buf, `,"end":`...)
		buf = strconv.AppendInt(buf, s.end, 10)
		buf = append(buf, '}')
		if i < len(t.spans)-1 {
			buf = append(buf, ',')
		}
		buf = append(buf, '\n')
		w.Write(buf)
	}
	w.WriteString("]}\n")
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
