package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"

	"streamdex/internal/core"
	"streamdex/internal/dht"
	"streamdex/internal/summary"
)

// Tracing is done entirely from the benchmark's side of the public
// boundary: after core.New installs each node's DataCenter as the
// substrate's application, a traced run re-installs a wrapper around it
// (Node.SetApp) that records one span per upcall. Together with the
// gateway's post and callback spans and the generator probe's emit stamps,
// that is every layer boundary a request crosses between nodes. Spans stay
// in memory until the ring is closed.

type spanKind uint8

const (
	spanEmit     spanKind = iota // generator emitted an MBR-closing point (root of an MBR request)
	spanPost                     // Node.Do(PostSimilarity) at the gateway (root of a query request)
	spanMBR                      // DataCenter upcall, KindMBR
	spanQuery                    // DataCenter upcall, KindQuery
	spanNotify                   // DataCenter upcall, KindNotify
	spanResponse                 // DataCenter upcall, KindResponse
	spanOther                    // DataCenter upcall, any other kind
	spanCallback                 // OnSimilarity at the gateway, inside the response upcall
	numSpanKinds
)

var spanNames = [numSpanKinds]string{
	"stream.emit", "gateway.post", "core.deliver_mbr", "core.deliver_query",
	"core.deliver_notify", "core.deliver_response", "core.deliver_other", "gateway.callback",
}

// causes lists, per span kind, the kinds of the same request that can have
// caused it; the most recent such span is its parent.
var causes = [numSpanKinds][]spanKind{
	spanMBR:      {spanEmit, spanMBR},
	spanQuery:    {spanPost, spanQuery},
	spanNotify:   {spanQuery, spanNotify},
	spanResponse: {spanQuery, spanNotify},
	spanCallback: {spanResponse},
}

// span is one timed upcall. A request is a query (query != 0) or an MBR
// (stream >= 0, with seq); a notify batch serves several queries, listed
// in queries. items is the payload's element count (notify items, response
// matches).
type span struct {
	kind       spanKind
	node       int
	worker     bool // ran on a data-plane worker, not the node's run loop
	start, end int64

	query   uint64
	queries []uint64
	stream  int
	seq     uint64
	items   int

	parent int   // index into the merged span list, -1 for roots
	self   int64 // duration minus nested child spans, filled by selfTimes
}

func (s *span) dur() int64 { return s.end - s.start }

// tracer collects spans and replay samples for one traced run.
type tracer struct {
	streamIndex map[string]int // stream id -> flat stream index

	nodes []nodeSpans

	sampleMu sync.Mutex
	seenMBRs int
	mbrs     []*summary.MBR // deep copies of delivered MBRs, for layer replay
}

type nodeSpans struct {
	mu    sync.Mutex
	spans []span
}

const (
	mbrSampleEvery = 4     // keep every 4th delivered MBR …
	mbrSampleMax   = 40000 // … up to a steady-state store's worth
)

func newTracer(nodes int, streamIndex map[string]int) *tracer {
	return &tracer{streamIndex: streamIndex, nodes: make([]nodeSpans, nodes)}
}

func (t *tracer) record(s span) {
	n := &t.nodes[s.node]
	n.mu.Lock()
	n.spans = append(n.spans, s)
	n.mu.Unlock()
}

// classify fills a span's kind and request identity from the message.
func (t *tracer) classify(s *span, msg *dht.Message) {
	s.stream = -1
	switch p := msg.Payload.(type) {
	case core.MBRUpdate:
		s.kind = spanMBR
		if idx, ok := t.streamIndex[p.MBR.StreamID]; ok {
			s.stream, s.seq = idx, p.MBR.Seq
		}
	case core.SimQuery:
		s.kind, s.query = spanQuery, uint64(p.Q.ID)
	case core.NotifyBatch:
		s.kind, s.items = spanNotify, len(p.Items)
		for _, it := range p.Items {
			s.queries = append(s.queries, uint64(it.QueryID))
		}
	case core.ResponseMsg:
		s.kind, s.query, s.items = spanResponse, uint64(p.QueryID), len(p.Matches)
	default:
		s.kind = spanOther
	}
}

func (t *tracer) sampleMBR(b *summary.MBR) {
	t.sampleMu.Lock()
	t.seenMBRs++
	if t.seenMBRs%mbrSampleEvery == 0 && len(t.mbrs) < mbrSampleMax {
		c := *b
		c.Lo, c.Hi = b.Lo.Clone(), b.Hi.Clone()
		c.StreamID = strings.Clone(b.StreamID) // decoded ids may alias a decode arena
		t.mbrs = append(t.mbrs, &c)
	}
	t.sampleMu.Unlock()
}

// tracedApp is the interposer: dht.App and dht.ConcurrentApp around the
// node's DataCenter.
type tracedApp struct {
	dc   *core.DataCenter
	t    *tracer
	node int
}

func (a tracedApp) Deliver(self dht.Key, msg *dht.Message) {
	s := span{node: a.node}
	a.t.classify(&s, msg)
	s.start = nowNs()
	a.dc.Deliver(self, msg)
	s.end = nowNs()
	a.finish(s, msg)
}

func (a tracedApp) DeliverData(self dht.Key, msg *dht.Message) bool {
	s := span{node: a.node, worker: true}
	a.t.classify(&s, msg)
	s.start = nowNs()
	ok := a.dc.DeliverData(self, msg)
	s.end = nowNs()
	if ok { // declined kinds are re-delivered on the loop and traced there
		a.finish(s, msg)
	}
	return ok
}

func (a tracedApp) finish(s span, msg *dht.Message) {
	a.t.record(s)
	if s.kind == spanMBR {
		a.t.sampleMBR(msg.Payload.(core.MBRUpdate).MBR)
	}
}

// merged returns every recorded span in start order.
func (t *tracer) merged() []span {
	var all []span
	for i := range t.nodes {
		all = append(all, t.nodes[i].spans...)
	}
	sort.SliceStable(all, func(i, j int) bool { return all[i].start < all[j].start })
	return all
}

// selfTimes fills span.self for spans that ran one at a time on a single
// goroutine (given in start order): a span's self time is its duration
// minus the duration of the spans nested directly inside it.
func selfTimes(spans []*span) {
	var stack []*span
	for _, s := range spans {
		s.self = s.dur()
		for len(stack) > 0 && stack[len(stack)-1].end <= s.start {
			stack = stack[:len(stack)-1]
		}
		if len(stack) > 0 {
			stack[len(stack)-1].self -= s.dur()
		}
		stack = append(stack, s)
	}
}

// resolve computes self times and parents over spans in start order. Self
// time needs true nesting, which only a node's run loop guarantees (one
// goroutine); worker spans run concurrently and keep self = duration.
// A span's parent is the latest earlier span of the same request whose
// kind can cause it (see causes).
func resolve(all []span) {
	perLoop := map[int][]*span{}
	for i := range all {
		s := &all[i]
		s.parent, s.self = -1, s.dur()
		if !s.worker {
			perLoop[s.node] = append(perLoop[s.node], s)
		}
	}
	for _, loop := range perLoop {
		selfTimes(loop)
	}

	type mbrKey struct {
		stream int
		seq    uint64
	}
	lastQ := map[uint64]*[numSpanKinds]int{}
	lastM := map[mbrKey]*[numSpanKinds]int{}
	blank := func() *[numSpanKinds]int {
		var a [numSpanKinds]int
		for i := range a {
			a[i] = -1
		}
		return &a
	}
	link := func(i int, last *[numSpanKinds]int) {
		s := &all[i]
		for _, k := range causes[s.kind] {
			if p := last[k]; p >= 0 && p != i && (s.parent < 0 || all[p].start > all[s.parent].start) {
				s.parent = p
			}
		}
	}
	for i := range all {
		s := &all[i]
		ids := s.queries
		if s.query != 0 {
			ids = []uint64{s.query}
		}
		for _, id := range ids {
			last := lastQ[id]
			if last == nil {
				last = blank()
				lastQ[id] = last
			}
			link(i, last)
			last[s.kind] = i
		}
		if s.stream >= 0 && (s.kind == spanMBR || s.kind == spanEmit) {
			k := mbrKey{s.stream, s.seq}
			last := lastM[k]
			if last == nil {
				last = blank()
				lastM[k] = last
			}
			link(i, last)
			last[s.kind] = i
		}
	}
}

// traceLine is one span as written to the trace file.
type traceLine struct {
	ID      int      `json:"id"`
	Parent  int      `json:"parent"`
	Name    string   `json:"name"`
	Node    int      `json:"node"`
	Path    string   `json:"path"`
	StartUs float64  `json:"start_us"`
	DurUs   float64  `json:"dur_us"`
	SelfUs  float64  `json:"self_us"`
	Req     string   `json:"req,omitempty"`
	Reqs    []string `json:"reqs,omitempty"`
	Items   int      `json:"items,omitempty"`
}

// The trace file holds a sample of the requests, each sampled request in
// full: every 64th MBR of a stream (a saturated ring closes hundreds of
// thousands per run) and every 8th query (a standing set draws ten
// thousand responses a second). Upcalls that belong to no request
// (location-service traffic) are counted in the metrics but not written.
const (
	mbrTraceEvery   = 64
	queryTraceEvery = 8
)

func (s *span) inTraceFile() bool {
	switch {
	case s.stream >= 0:
		return s.seq%mbrTraceEvery == 0
	case s.query != 0:
		return s.query%queryTraceEvery == 0
	}
	for _, id := range s.queries {
		if id%queryTraceEvery == 0 {
			return true
		}
	}
	return false
}

// writeTrace writes resolved spans as JSON lines and returns the path.
func writeTrace(dir, name string, all []span, streamNames []string) (string, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	path := filepath.Join(dir, name+".spans.jsonl")
	f, err := os.Create(path)
	if err != nil {
		return "", err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for i := range all {
		s := &all[i]
		if !s.inTraceFile() {
			continue
		}
		line := traceLine{
			ID: i, Parent: s.parent, Name: spanNames[s.kind], Node: s.node, Path: "loop",
			StartUs: float64(s.start) / 1e3, DurUs: float64(s.dur()) / 1e3, SelfUs: float64(s.self) / 1e3,
			Items: s.items,
		}
		if s.worker {
			line.Path = "worker"
		}
		switch {
		case s.query != 0:
			line.Req = fmt.Sprintf("q%d", s.query)
		case s.stream >= 0:
			line.Req = fmt.Sprintf("%s#%d", streamNames[s.stream], s.seq)
		}
		for _, id := range s.queries {
			if id%queryTraceEvery == 0 {
				line.Reqs = append(line.Reqs, fmt.Sprintf("q%d", id))
			}
		}
		if err := enc.Encode(line); err != nil {
			f.Close()
			return "", err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return "", err
	}
	return path, f.Close()
}
