package main

import (
	"bufio"
	"encoding/json"
	"os"
	"path/filepath"
	"sync"
	"time"
)

// tracer keeps the spans of a traced run in memory and writes them out
// when the run ends. Spans are recorded from the harness's side of each
// layer boundary — around the calls into a layer's exported functions
// and around the client-visible events of a row — never from inside the
// program.
type tracer struct {
	base  time.Time
	mu    sync.Mutex
	spans []spanRec
}

// spanRec is one line of trace-<workload>.jsonl. Times are nanoseconds
// since the tracer started; Parent is the index of the causing span (-1
// for none); Row is the identifier the spans of one row share.
type spanRec struct {
	Name   string `json:"name"`
	Start  int64  `json:"start"`
	End    int64  `json:"end"`
	Parent int32  `json:"parent"`
	Row    int    `json:"row"`
}

func newTracer() *tracer { return &tracer{base: time.Now()} }

// span records one finished span and returns its index.
func (t *tracer) span(name string, start, end time.Time, parent int32, row int) int32 {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, spanRec{
		Name: name, Start: int64(start.Sub(t.base)), End: int64(end.Sub(t.base)), Parent: parent, Row: row,
	})
	return int32(len(t.spans) - 1)
}

// end closes a span recorded open (a stage's root, begun before its
// children).
func (t *tracer) end(id int32, at time.Time) {
	t.mu.Lock()
	t.spans[id].End = int64(at.Sub(t.base))
	t.mu.Unlock()
}

// write dumps the spans as JSON lines to dir/trace-<workload>.jsonl.
func (t *tracer) write(dir, workload string) (string, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	path := filepath.Join(dir, "trace-"+workload+".jsonl")
	f, err := os.Create(path)
	if err != nil {
		return "", err
	}
	bw := bufio.NewWriter(f)
	enc := json.NewEncoder(bw)
	t.mu.Lock()
	defer t.mu.Unlock()
	for i := range t.spans {
		if err := enc.Encode(&t.spans[i]); err != nil {
			f.Close()
			return "", err
		}
	}
	if err := bw.Flush(); err != nil {
		f.Close()
		return "", err
	}
	return path, f.Close()
}
