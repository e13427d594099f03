package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"net"
	"os"
	"reflect"
	"sort"
	"strings"
	"testing"
	"time"
)

// small is a workload cut down to test size: a few hundred keys, a handful
// of requests per phase.
func small(w workload) *workload {
	w.keys, w.burstOps, w.ladderOps, w.passStride, w.walkRows = 600, 12, 60, 1, 0
	w.quietKeys = min(w.quietKeys, w.keys/2)
	return &w
}

// rawClient exchanges request lines for raw reply text, unchecked.
type rawClient struct {
	c net.Conn
	r *bufio.Reader
}

// do sends one request line and returns the whole reply: every ROW line
// and the final line, newline-joined.
func (rc *rawClient) do(t *testing.T, line []byte) string {
	t.Helper()
	if _, err := rc.c.Write(append(line, '\n')); err != nil {
		t.Fatal(err)
	}
	var reply []string
	for {
		got, err := rc.r.ReadString('\n')
		if err != nil {
			t.Fatalf("%.60q: %v", line, err)
		}
		got = strings.TrimRight(got, "\r\n")
		reply = append(reply, got)
		if !strings.HasPrefix(got, "ROW ") {
			return strings.Join(reply, "\n")
		}
	}
}

// TestShimMatchesServer replays one seeded request stream through the TCP
// server and through the core-rung shim on two fresh stores and requires
// identical replies and an identical final SCAN - -, so that the ladder's
// core rung cannot drift from internal/server/session.go.
func TestShimMatchesServer(t *testing.T) {
	w := small(workloads[0])
	w.mix = []mixEntry{{vGet, 300}, {vGetAbsent, 50}, {vScan, 100}, {vPut, 250}, {vPutNew, 100}, {vDel, 100}, {vMput, 100}}
	w.scanRows = 30

	open := func() (*instance, *oracle) {
		o := newOracle(w.keys)
		in, err := setup(w, o, 0)
		if err != nil {
			t.Fatal(err)
		}
		setLatency(in.store, 0)
		t.Cleanup(in.stop)
		return in, o
	}
	served, _ := open()
	shimmed, _ := open()
	conn, err := net.Dial("tcp", served.addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	rc := &rawClient{c: conn, r: bufio.NewReader(conn)}
	e, err := newEngine(shimmed.db)
	if err != nil {
		t.Fatal(err)
	}

	rows := func(rs []kvRow, err error) string {
		if err != nil {
			return "ERR server " + err.Error()
		}
		var b strings.Builder
		for _, r := range rs {
			fmt.Fprintf(&b, "ROW %s %s\n", r.key, r.val)
		}
		fmt.Fprintf(&b, "OK %d", len(rs))
		return b.String()
	}
	status := func(found bool, err error) string {
		switch {
		case err != nil:
			return "ERR server " + err.Error()
		case !found:
			return "NOTFOUND"
		}
		return "OK"
	}

	vers := map[int]int{}
	g := newGenerator(w, w.mix, 42, 0, 1, w.keys)
	var p op
	for i := 0; i < 400; i++ {
		g.next(&p)
		key := appendKey(nil, p.key)
		var req []byte
		var want string
		switch p.v {
		case vGet, vGetAbsent:
			req = append([]byte("GET "), key...)
			val, found, err := e.get(key)
			if want = status(found, err); found && err == nil {
				want = "OK " + string(val)
			}
		case vScan:
			req = fmt.Appendf(nil, "SCAN %s - %d", key, p.rows)
			want = rows(e.scan(key, p.rows))
		case vPut, vPutNew:
			vers[p.key]++
			val := appendValue(nil, p.key, vers[p.key])
			req = fmt.Appendf(nil, "PUT %s %s", key, val)
			want = status(true, e.put(key, val))
		case vDel:
			req = append([]byte("DEL "), key...)
			want = status(e.del(key))
		case vMput:
			var keys, vals [][]byte
			req = []byte("MPUT")
			for _, k := range p.keys {
				vers[k]++
				keys = append(keys, appendKey(nil, k))
				vals = append(vals, appendValue(nil, k, vers[k]))
				req = fmt.Appendf(req, " %s %s", keys[len(keys)-1], vals[len(vals)-1])
			}
			if want = status(true, e.mput(keys, vals)); want == "OK" {
				want = fmt.Sprintf("OK %d", len(keys))
			}
		}
		if got := rc.do(t, req); got != want {
			t.Fatalf("request %d %.40q:\nserver: %.200q\nshim:   %.200q", i, req, got, want)
		}
	}
	if got, want := rc.do(t, []byte("SCAN - - 100000")), rows(e.scan(nil, 100000)); got != want {
		t.Fatalf("final SCAN - - differs: server %d bytes, shim %d bytes", len(got), len(want))
	}
}

// declared is BENCHMARK.json as the driver reads it.
type declared struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct{ Name, Why string }
	EndToEnd   []declaredMetric `json:"end_to_end"`
	PerLayer   []declaredMetric `json:"per_layer"`
}

type declaredMetric struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

func names(m map[string]value) []string {
	out := make([]string, 0, len(m))
	for n := range m {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}

// TestSmoke runs all four workloads at test size in both trace modes,
// checks the result line's shape, and checks that the workloads and
// metrics the program prints are exactly the ones BENCHMARK.json declares,
// with the same units, directions and bounds.
func TestSmoke(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var decl declared
	dec := json.NewDecoder(bytes.NewReader(raw))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&decl); err != nil {
		t.Fatal(err)
	}
	if len(decl.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json declares %d workloads, the program has %d", len(decl.Workloads), len(workloads))
	}
	asDefs := func(ds []declaredMetric) []metricDef {
		out := make([]metricDef, len(ds))
		for i, d := range ds {
			out[i] = metricDef{d.Name, d.Unit, d.Better, d.Bound}
		}
		return out
	}
	if got := asDefs(decl.EndToEnd); !reflect.DeepEqual(got, endToEnd) {
		t.Errorf("end_to_end: BENCHMARK.json %v\nprogram %v", got, endToEnd)
	}
	if got := asDefs(decl.PerLayer); !reflect.DeepEqual(got, perLayer) {
		t.Errorf("per_layer: BENCHMARK.json %v\nprogram %v", got, perLayer)
	}
	want := map[int][]string{}
	for tr, defs := range [][]metricDef{endToEnd, perLayer} {
		for _, d := range defs {
			want[tr] = append(want[tr], d.name)
		}
		sort.Strings(want[tr])
	}

	quiet := func(string, ...any) {}
	tiny := ladderSizes{nullRTTs: 50, poolHits: 1000, poolTrace: 80, diskOps: 40, syncs: 3}
	d := 300 * time.Millisecond
	// The storage rung keeps its scratch file under the working directory.
	wd, err := os.Getwd()
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Chdir(t.TempDir()); err != nil {
		t.Fatal(err)
	}
	defer os.Chdir(wd)
	for i := range workloads {
		if decl.Workloads[i].Name != workloads[i].name {
			t.Errorf("workload %d: BENCHMARK.json %q, program %q", i, decl.Workloads[i].Name, workloads[i].name)
		}
		w := small(workloads[i])
		for tr := 0; tr <= 1; tr++ {
			var (
				metrics map[string]value
				o       *oracle
			)
			if tr == 0 {
				run, err := runE2E(w, defaultSeed, d, 1, 1, quiet)
				if err != nil {
					t.Fatalf("%s: %v", w.name, err)
				}
				metrics, o = run.endToEnd(), run.o
			} else if metrics, o, err = runLadder(w, defaultSeed, d, tiny, "", quiet); err != nil {
				t.Fatalf("%s ladder: %v", w.name, err)
			}
			res := result(metrics, o)
			if !res.Correct || res.Attempted < 100 {
				t.Errorf("%s trace=%d: correct=%v attempted=%d failed=%d: %s", w.name, tr, res.Correct, res.Attempted, res.Failed, o.firstErr)
			}
			if got := names(res.Metrics); !reflect.DeepEqual(got, want[tr]) {
				t.Errorf("%s trace=%d prints %v\nwant %v", w.name, tr, got, want[tr])
			}
			line, err := json.Marshal(res)
			if err != nil {
				t.Fatal(err)
			}
			var shape map[string]json.RawMessage
			if err := json.Unmarshal(line, &shape); err != nil {
				t.Fatal(err)
			}
			if len(shape) != 4 || shape["correct"] == nil || shape["attempted"] == nil || shape["failed"] == nil || shape["metrics"] == nil {
				t.Errorf("%s: result line %s lacks a key or has an extra one", w.name, line)
			}
			if tr == 0 {
				for n, v := range res.Metrics {
					if v.Value <= 0 {
						t.Errorf("%s: end-to-end metric %s = %v; a bounded metric may never be 0", w.name, n, v.Value)
					}
				}
			}
		}
	}
}

// TestSameSeedSameRequests: the generator's stream is a function of the
// seed and the client alone.
func TestSameSeedSameRequests(t *testing.T) {
	w := findWorkload("mixed-cold")
	stream := func(seed int64) []op {
		g := newGenerator(w, w.mix, seed, 1, 2, w.keys)
		ops := make([]op, 500)
		for i := range ops {
			g.next(&ops[i])
		}
		return ops
	}
	if !reflect.DeepEqual(stream(7), stream(7)) {
		t.Error("two streams from seed 7 differ")
	}
	if reflect.DeepEqual(stream(7), stream(8)) {
		t.Error("seeds 7 and 8 give the same stream")
	}
	for _, p := range stream(7) {
		if (p.v == vPut || p.v == vDel) && p.key%2 != 1 {
			t.Fatalf("client 1 of 2 writes key %d, which client 0 owns", p.key)
		}
	}
}
