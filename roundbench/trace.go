package main

import (
	"bufio"
	"context"
	"encoding/json"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"runtime/metrics"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/flserve"
	"repro/internal/sched"
)

// serverRecord is what the traced ingestor saw of one update.
type serverRecord struct {
	// start and end bracket IngestStream; last is the return of the final
	// Read that delivered bytes of this update.
	start, last, end time.Time
	stats            core.DecompressStats
}

// tracer collects per-update server records keyed by the client ID the
// benchmark sent, which encodes (round, client).
type tracer struct {
	mu   sync.Mutex
	recs map[uint32]serverRecord
}

func newTracer() *tracer { return &tracer{recs: make(map[uint32]serverRecord)} }

func (t *tracer) take(id uint32) (serverRecord, bool) {
	t.mu.Lock()
	defer t.mu.Unlock()
	r, ok := t.recs[id]
	delete(t.recs, id)
	return r, ok
}

// tracedIngestor times the public IngestStream call around the real
// ingestor and wraps its reader to find the update's last byte.
type tracedIngestor struct {
	inner flserve.StreamIngestor
	t     *tracer
}

func (ti *tracedIngestor) IngestStream(ctx context.Context, client uint32, weight float64, dopts core.DecodeOptions, r io.Reader) (int64, core.DecompressStats, error) {
	tr := &tracedReader{r: r}
	rec := serverRecord{start: time.Now()}
	n, st, err := ti.inner.IngestStream(ctx, client, weight, dopts, tr)
	rec.end = time.Now()
	rec.last, rec.stats = tr.last, st
	if rec.last.IsZero() {
		rec.last = rec.start
	}
	ti.t.mu.Lock()
	ti.t.recs[client] = rec
	ti.t.mu.Unlock()
	return n, st, err
}

type tracedReader struct {
	r    io.Reader
	last time.Time
}

func (t *tracedReader) Read(p []byte) (int, error) {
	n, err := t.r.Read(p)
	if n > 0 {
		t.last = time.Now()
	}
	return n, err
}

// updateTrace joins one update's client and server views.
type updateTrace struct {
	round, client int
	up            updateOutcome
	srv           serverRecord
}

// split partitions the update's latency, upload call to ack, along its
// blocking chain:
//   - client: until the client has finished its encode (core.Stats
//     CompressTime, which includes writing into the socket) and the server
//     has started IngestStream; for a pre-encoded upload only the second
//     holds, so the stage is just the update prelude;
//   - deliver: the rest of IngestStream before the update's last byte,
//     i.e. flush, transfer and the routing goroutine's work;
//   - tail: from the last byte to IngestStream returning;
//   - leftover: time covered by none of these (the ack's return).
func (u *updateTrace) split() (lat, client, deliver, tail, leftover time.Duration) {
	t0, t3 := u.up.start, u.up.ack
	lat = t3.Sub(t0)
	clip := func(t time.Time) time.Time {
		if t.Before(t0) {
			return t0
		}
		if t.After(t3) {
			return t3
		}
		return t
	}
	clientEnd := u.srv.start
	if u.up.stats != nil {
		if encEnd := t0.Add(u.up.stats.CompressTime); encEnd.After(clientEnd) {
			clientEnd = encEnd
		}
	}
	c, l, e := clip(clientEnd), clip(u.srv.last), clip(u.srv.end)
	client = c.Sub(t0)
	if l.After(c) {
		deliver = l.Sub(c)
	}
	tail = e.Sub(l)
	leftover = lat - client - deliver - tail
	return
}

// memSample is a point-in-time read of the Go runtime and sched pools.
type memSample struct {
	totalAlloc             uint64
	gcCPU, allCPU          float64
	byteHits, byteMisses   uint64
	floatHits, floatMisses uint64
}

func readMem() memSample {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	samples := []metrics.Sample{{Name: "/cpu/classes/gc/total:cpu-seconds"}, {Name: "/cpu/classes/total:cpu-seconds"}}
	metrics.Read(samples)
	s := memSample{totalAlloc: ms.TotalAlloc}
	if samples[0].Value.Kind() == metrics.KindFloat64 {
		s.gcCPU = samples[0].Value.Float64()
	}
	if samples[1].Value.Kind() == metrics.KindFloat64 {
		s.allCPU = samples[1].Value.Float64()
	}
	s.byteHits, s.byteMisses = sched.BytePoolCounters()
	s.floatHits, s.floatMisses = sched.FloatPoolCounters()
	return s
}

// span is one record of the trace file.
type span struct {
	Workload string  `json:"workload"`
	Round    int     `json:"round"`
	Client   int     `json:"client"`
	Name     string  `json:"name"`
	Parent   string  `json:"parent,omitempty"`
	StartMS  float64 `json:"start_ms"`
	EndMS    float64 `json:"end_ms"`
}

// writeSpans writes the traced phase's spans as JSON lines, times in
// milliseconds from the phase's first round.
func writeSpans(path, workload string, rounds []roundOutcome, ups []updateTrace) error {
	if len(rounds) == 0 {
		return nil
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	origin := rounds[0].start
	ms := func(t time.Time) float64 { return float64(t.Sub(origin)) / 1e6 }
	emit := func(r, c int, name, parent string, a, b time.Time) {
		enc.Encode(span{workload, r, c, name, parent, ms(a), ms(b)}) //nolint:errcheck — checked at Flush
	}
	for _, o := range rounds {
		emit(o.round, -1, "round", "", o.start, o.end)
		emit(o.round, -1, "agg.mean", "round", o.meanStart, o.meanEnd)
		if o.refSet > 0 {
			emit(o.round, -1, "delta.ref_set", "round", o.meanEnd, o.meanEnd.Add(o.refSet))
		}
	}
	for _, u := range ups {
		emit(u.round, u.client, "update", "round", u.up.start, u.up.ack)
		if u.up.stats != nil {
			emit(u.round, u.client, "client.encode", "update", u.up.start, u.up.start.Add(u.up.stats.CompressTime))
		}
		emit(u.round, u.client, "agg.ingest", "update", u.srv.start, u.srv.end)
		emit(u.round, u.client, "agg.receive", "agg.ingest", u.srv.start, u.srv.last)
		emit(u.round, u.client, "agg.tail", "agg.ingest", u.srv.last, u.srv.end)
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
