package main

import (
	"bufio"
	"encoding/json"
	"os"
	"time"
)

// spanKind names the layer boundary a span was recorded at.
type spanKind uint8

const (
	kOp          spanKind = iota // one whole request, at the rung's top
	kIndexScan                   // core: Index.Scan, heap fetches nested inside
	kHeapFetch                   // heap: Relation.Fetch
	kHeapWrite                   // heap: Relation.Insert / Update / Delete
	kIndexInsert                 // core: Index.InsertTID / InsertTIDBatch
	kCommit                      // txn: Txn.Commit
	numKinds
)

var kindNames = [numKinds]string{"op", "core.index_scan", "heap.fetch", "heap.write", "core.index_insert", "txn.commit"}

// span is one timed call: what, when (ns since the tracer started), the
// span that caused it (-1 for a request's root) and the request it belongs
// to. Spans of one request share req.
type span struct {
	kind   spanKind
	verb   verb
	start  int64
	end    int64
	parent int32
	req    int32
}

// tracer records spans in memory. A nil tracer records nothing and costs a
// pointer test per call, so the same engine code runs traced and untraced.
type tracer struct {
	t0    time.Time
	spans []span
	req   int32
}

func newTracer(capacity int) *tracer {
	return &tracer{t0: time.Now(), spans: make([]span, 0, capacity), req: -1}
}

// beginOp opens the root span of the next request.
func (t *tracer) beginOp(v verb) int32 {
	if t == nil {
		return -1
	}
	t.req++
	t.spans = append(t.spans, span{kind: kOp, verb: v, start: int64(time.Since(t.t0)), parent: -1, req: t.req})
	return int32(len(t.spans) - 1)
}

func (t *tracer) begin(k spanKind, parent int32) int32 {
	if t == nil {
		return -1
	}
	t.spans = append(t.spans, span{kind: k, verb: t.spans[parent].verb, start: int64(time.Since(t.t0)), parent: parent, req: t.req})
	return int32(len(t.spans) - 1)
}

func (t *tracer) end(i int32) {
	if t == nil {
		return
	}
	t.spans[i].end = int64(time.Since(t.t0))
}

// opCost is one request's time by layer: each kind's self time, i.e. its
// spans' durations minus what their own child spans cover. self[kOp] is
// the request's time no child span covers.
type opCost struct {
	verb  verb
	total int64
	self  [numKinds]int64
}

// costs folds the spans into one opCost per request.
func (t *tracer) costs() []opCost {
	out := make([]opCost, t.req+1)
	for i := range t.spans {
		s := &t.spans[i]
		d := s.end - s.start
		c := &out[s.req]
		c.self[s.kind] += d
		if s.parent >= 0 {
			c.self[t.spans[s.parent].kind] -= d
		} else {
			c.verb, c.total = s.verb, d
		}
	}
	return out
}

// writeSpans appends the spans to path as JSON lines, tagged with the rung
// that recorded them.
func (t *tracer) writeSpans(path, workload, rung string) error {
	f, err := os.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for i := range t.spans {
		s := &t.spans[i]
		err = enc.Encode(struct {
			Workload string `json:"workload"`
			Rung     string `json:"rung"`
			Name     string `json:"name"`
			Verb     string `json:"verb"`
			Start    int64  `json:"start_ns"`
			End      int64  `json:"end_ns"`
			ID       int    `json:"id"`
			Parent   int32  `json:"parent"`
			Req      int32  `json:"req"`
		}{workload, rung, kindNames[s.kind], s.verb.String(), s.start, s.end, i, s.parent, s.req})
		if err != nil {
			break
		}
	}
	if ferr := w.Flush(); err == nil {
		err = ferr
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return err
}
