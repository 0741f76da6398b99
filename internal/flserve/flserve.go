// Package flserve implements the streaming side of the paper's
// aggregation-server scenario (Eqn 1, Figures 6–9): a TCP server that
// ingests many concurrent FedSZ-compressed client updates and hands each
// connection's wire stream to a StreamIngestor (internal/agg.Sharded),
// which decodes each tensor while the next is still crossing the network
// and folds finished updates incrementally into a FedAvg accumulator.
//
// # Connection protocol
//
// A connection opens with the "FLS1" magic and then carries any number of
// updates — one wire stream each, acked individually — so a client (or a
// whole round's worth of clients multiplexed by fl.NetTransport.UploadAll,
// whose ephemeral server folds into the round's agg.Sharded) pays the
// dial and prelude cost once:
//
//	client → server: magic(u32 "FLS1") update*
//	update:          clientID(u32) wireStream
//	server → client: status(u8) [msgLen(u16) msg]    (status 0 = accepted)
//
// A clean EOF where the next clientID would start ends the connection; the
// historical one-update-per-connection exchange is exactly the first
// iteration of this loop, so old single-shot clients are wire-compatible.
// wireStream is the internal/wire framing of a FedSZ stream; each ack is
// written only after the Ingestor has read that update through its
// verified trailer and folded it, so a successful Upload means the server
// has durably folded the update. After a failed update the server acks
// the error and drops the connection (stream synchronization is
// unreliable past a damaged frame); clients resume on a fresh dial.
//
// # Pipelining and backpressure
//
// Each connection hands its buffered socket to the Ingestor, which
// de-frames it (per-frame CRC verification), submits every fully received
// tensor section to its shared sched.Pool and immediately resumes reading.
// Decode therefore overlaps receive on every connection, while total
// decode parallelism across all connections stays at the ingestor's
// budget. Backpressure is layered:
//
//   - Config.MaxConns bounds concurrent connections (the accept loop holds
//     a slot before accepting), so peak memory is O(MaxConns × frame)
//     plus in-flight decodes — never O(clients × model).
//   - When the decode pool is saturated, the connection goroutine decodes
//     inline instead of reading, which stops draining the socket and lets
//     TCP flow control push back on the sender.
package flserve

import (
	"bufio"
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"
	"net"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/telemetry"
	"repro/internal/tensor"
)

const (
	connMagic = 0x464C5331 // "FLS1"
	// connMagicDelta opens a delta-negotiating connection: the magic is
	// followed by the client's reference epoch (u32), and the server answers
	// one byte — 1 when it holds that epoch's reference and will decode
	// residual (v3) streams on this connection, 0 when the client must fall
	// back to absolute uploads. FLS1 connections skip the exchange entirely,
	// so pre-delta clients are wire-compatible byte for byte.
	connMagicDelta = 0x464C5332 // "FLS2"
	// connMagicWeighted opens a weighted-update connection (the edge→root
	// hop of a hierarchical topology): every update carries an 8-byte
	// weight between the clientID and the wire stream, so an edge
	// aggregator can forward one fused update that counts for its whole
	// local population. There is no handshake reply — like FLS1 — and FLS1
	// connections are unchanged (implicit weight 1).
	connMagicWeighted = 0x464C5333 // "FLS3"
	// ackMsgLimit truncates error messages echoed to clients.
	ackMsgLimit = 512

	// Ack status bytes. A shed ack carries a u16 retry-after hint in
	// milliseconds instead of a message — the explicit reject-newest
	// admission policy, distinct from a rejection so clients classify it as
	// retryable congestion, never as corruption.
	ackAccepted = 0
	ackRejected = 1
	ackShed     = 2
)

// Config tunes a Server.
type Config struct {
	// Deprecated: ignored; decode parallelism belongs to the StreamIngestor (agg.Config.Pool).
	Parallel int
	// MaxConns bounds concurrently served connections (0 selects
	// 4×GOMAXPROCS). The accept loop blocks when the bound is reached.
	MaxConns int
	// QueueDepth switches admission control from accept-loop backpressure
	// to explicit load shedding: connections beyond the MaxConns serving
	// set wait in a bounded queue of this depth, and arrivals past the
	// queue are shed — acked with a retry-after hint and closed — instead
	// of piling into the listener backlog. 0 keeps the legacy discipline
	// (the accept loop blocks on a slot before accepting, so the kernel
	// backlog absorbs bursts). Shedding makes overload predictable: memory
	// stays O(MaxConns + QueueDepth) and excess clients learn to back off
	// immediately rather than timing out in the backlog.
	QueueDepth int
	// RetryAfterHint is the backoff the shed ack suggests to clients
	// (0 selects 100 ms; capped at ~65 s by the wire field).
	RetryAfterHint time.Duration
	// Ingestor takes in every update (required): the server hands it each
	// update's framed byte stream directly, so a section-routing
	// implementation (internal/agg.Sharded) can dispatch wire frames to
	// aggregator shards without materializing the decoded state dict on
	// the connection goroutine. It is called concurrently from different
	// connections; an error rejects the update (the client sees a
	// non-zero ack) without stopping the server. Acks, metrics, and
	// timeout handling stay with the server.
	Ingestor StreamIngestor
	// IdleTimeout bounds how long a connection may sit without delivering
	// a byte before it is dropped, so a stalled client cannot pin a
	// MaxConns slot forever (0 selects 2 minutes; negative disables). The
	// deadline is refreshed on every read, so slow-but-moving uploads are
	// unaffected.
	IdleTimeout time.Duration
	// UploadTimeout bounds one update end to end — clientID through ack —
	// regardless of how steadily it trickles in (0 disables). It becomes
	// the per-update context deadline: blocked reads are cut at the
	// deadline and in-flight decode workers for that update exit early.
	UploadTimeout time.Duration
	// Tracer, when non-nil, receives one span per connection and one event
	// per update — the per-connection timeline complementing the
	// aggregated metrics the server always publishes on
	// telemetry.Default().
	Tracer *telemetry.Tracer
	// RefProvider resolves a delta client's negotiated reference epoch to
	// the retained reference state dict (nil when the server does not hold
	// that epoch — the client is then steered to absolute uploads). Leave
	// nil to refuse every delta negotiation; FLS1 connections never consult
	// it. The returned dict is read concurrently by in-flight decodes, so
	// the provider must not hand out a dict that is mutated while
	// connections are live (internal/delta.Ref.Provider retains a stable
	// copy per epoch).
	RefProvider func(epoch uint32) *tensor.StateDict
}

// StreamIngestor consumes one wire-framed update directly from the
// connection — the server's only ingest path. Implementations must read
// the update's wire stream from r through its trailer (the server acks
// only on a nil return), fold it, and report the wire byte count plus
// decode stats for the server's accounting. Calls arrive concurrently from
// different connections; ctx carries the update's deadline and the
// connection's RemoteAddr. An error rejects the update and drops the
// connection; corruption must surface as core.ErrCorrupt-wrapped errors
// and reference mismatches as core.ErrReference.
type StreamIngestor interface {
	IngestStream(ctx context.Context, client uint32, weight float64, dopts core.DecodeOptions, r io.Reader) (int64, core.DecompressStats, error)
}

// remoteKey is the context key under which a Server records the serving
// connection's remote address.
type remoteKey struct{}

// RemoteAddr returns the remote address of the connection whose update ctx
// belongs to ("" for a context that did not come from a Server) — the
// attribute that lets ingestor logs correlate an update with its
// connection.
func RemoteAddr(ctx context.Context) string {
	addr, _ := ctx.Value(remoteKey{}).(string)
	return addr
}

// defaultIdleTimeout is Config.IdleTimeout's zero-value default.
const defaultIdleTimeout = 2 * time.Minute

// defaultRetryAfterHint is Config.RetryAfterHint's zero-value default.
const defaultRetryAfterHint = 100 * time.Millisecond

// Stats aggregates what a Server has ingested so far. Obtain one from
// Server.Snapshot (atomics-backed, safe to call while connections are
// live).
type Stats struct {
	// Updates counts successfully ingested updates.
	Updates int
	// Rejected counts connections that failed protocol or ingest.
	Rejected int
	// Shed counts connections refused by admission control (QueueDepth
	// exceeded) — load the server declined, not failures.
	Shed int
	// WireBytes sums raw socket bytes across accepted updates.
	WireBytes int64
	// ReadWait, DecodeWork, and Wall sum the corresponding per-update
	// decode timings (Wall is summed per-update wall clock — clientID
	// through ingest return — not server uptime).
	ReadWait   time.Duration
	DecodeWork time.Duration
	Wall       time.Duration
	// BytesRecycled sums each accepted update's decode-side pool recycling
	// (see core.DecompressStats.BytesRecycled) — the observable that the
	// ingest path is running its steady-state zero-alloc loop.
	BytesRecycled uint64
}

// OverlapRatio reports the fraction of decode work hidden behind reading
// (and other tensors' decodes), aggregated over all ingested updates — the
// pipelining payoff: 0 means receive-then-decode, 1 means decode fully
// overlapped with receive.
func (s Stats) OverlapRatio() float64 {
	if s.DecodeWork <= 0 {
		return 0
	}
	hidden := s.ReadWait + s.DecodeWork - s.Wall
	switch {
	case hidden <= 0:
		return 0
	case hidden >= s.DecodeWork:
		return 1
	}
	return float64(hidden) / float64(s.DecodeWork)
}

// Server is a streaming FedSZ aggregation server.
type Server struct {
	cfg Config
	ln  net.Listener
	sem chan struct{}
	// queue is the bounded admission queue (QueueDepth > 0 only): the
	// accept loop enqueues, the dispatch loop waits for a serving slot,
	// and an arrival finding the queue full is shed.
	queue chan net.Conn
	wg    sync.WaitGroup

	closed atomic.Bool

	// Ingest counters, all atomic so Snapshot (and a /metrics scrape
	// rendering the shared telemetry families) never contends with — or
	// races — the per-connection goroutines updating them.
	updates       atomic.Int64
	rejected      atomic.Int64
	shed          atomic.Int64
	wireBytes     atomic.Int64
	readWaitNS    atomic.Int64
	decodeWorkNS  atomic.Int64
	wallNS        atomic.Int64
	bytesRecycled atomic.Uint64
}

// Listen starts a server on a TCP address ("127.0.0.1:0" picks a free
// port; Addr reports it).
func Listen(addr string, cfg Config) (*Server, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("flserve: %w", err)
	}
	return Serve(ln, cfg), nil
}

// Serve starts a server on an existing listener and takes ownership of it.
func Serve(ln net.Listener, cfg Config) *Server {
	if cfg.Ingestor == nil {
		panic("flserve: Config.Ingestor is required")
	}
	if cfg.MaxConns <= 0 {
		cfg.MaxConns = 4 * runtime.GOMAXPROCS(0)
	}
	switch {
	case cfg.IdleTimeout == 0:
		cfg.IdleTimeout = defaultIdleTimeout
	case cfg.IdleTimeout < 0:
		cfg.IdleTimeout = 0
	}
	if cfg.RetryAfterHint <= 0 {
		cfg.RetryAfterHint = defaultRetryAfterHint
	}
	s := &Server{
		cfg: cfg,
		ln:  ln,
		sem: make(chan struct{}, cfg.MaxConns),
	}
	metrics().maxConns.Set(float64(cfg.MaxConns))
	s.wg.Add(1)
	if cfg.QueueDepth > 0 {
		s.queue = make(chan net.Conn, cfg.QueueDepth)
		s.wg.Add(1)
		go s.dispatchLoop()
		go s.shedAcceptLoop()
	} else {
		go s.acceptLoop()
	}
	return s
}

// Addr returns the listening address.
func (s *Server) Addr() net.Addr { return s.ln.Addr() }

// Snapshot returns a point-in-time copy of the ingest counters. Every
// field is read atomically, so calling it while connections are live —
// the situation of a /metrics scrape against a serving process — is
// race-free; the fields are not one consistent cut (an update folding
// mid-read may be counted in Updates but not yet in WireBytes), which a
// monitoring read tolerates by construction.
func (s *Server) Snapshot() Stats {
	return Stats{
		Updates:       int(s.updates.Load()),
		Rejected:      int(s.rejected.Load()),
		Shed:          int(s.shed.Load()),
		WireBytes:     s.wireBytes.Load(),
		ReadWait:      time.Duration(s.readWaitNS.Load()),
		DecodeWork:    time.Duration(s.decodeWorkNS.Load()),
		Wall:          time.Duration(s.wallNS.Load()),
		BytesRecycled: s.bytesRecycled.Load(),
	}
}

// Close stops accepting, waits for in-flight connections to finish, and
// returns the listener's close error, if any.
func (s *Server) Close() error {
	if !s.closed.CompareAndSwap(false, true) {
		s.wg.Wait()
		return nil
	}
	err := s.ln.Close()
	s.wg.Wait()
	return err
}

func (s *Server) isClosed() bool { return s.closed.Load() }

// acceptLoop admits connections under the MaxConns bound: the slot is
// taken before Accept, so the listener's backlog — not server memory —
// absorbs bursts beyond the bound.
func (s *Server) acceptLoop() {
	defer s.wg.Done()
	for {
		s.sem <- struct{}{}
		conn, err := s.ln.Accept()
		if err != nil {
			<-s.sem
			if s.isClosed() || errors.Is(err, net.ErrClosed) {
				return
			}
			// Transient accept failure (fd exhaustion, aborted handshake):
			// back off briefly instead of spinning on a persistent error.
			time.Sleep(10 * time.Millisecond)
			continue
		}
		m := metrics()
		m.connsAccepted.Inc()
		m.connsActive.Inc()
		s.wg.Add(1)
		go func() {
			defer s.wg.Done()
			defer func() { <-s.sem }()
			defer m.connsActive.Dec()
			s.handleConn(conn)
		}()
	}
}

// shedAcceptLoop is the QueueDepth > 0 admission policy: accept eagerly,
// queue up to QueueDepth connections behind the MaxConns serving set, and
// shed (reject-newest) everything beyond — the newest arrival is the one
// turned away, since the queued ones have already waited. Closing the
// listener ends the loop; the queue channel is then closed so the
// dispatcher can drain and shed whatever was still waiting.
func (s *Server) shedAcceptLoop() {
	defer s.wg.Done()
	defer close(s.queue)
	for {
		conn, err := s.ln.Accept()
		if err != nil {
			if s.isClosed() || errors.Is(err, net.ErrClosed) {
				return
			}
			time.Sleep(10 * time.Millisecond)
			continue
		}
		m := metrics()
		m.connsAccepted.Inc()
		select {
		case s.queue <- conn:
			m.queueDepth.Inc()
		default:
			s.shedConn(conn)
		}
	}
}

// dispatchLoop feeds queued connections into serving slots. It owns the
// receive side of the queue; after the accept loop closes the channel,
// the remaining queued connections are shed rather than served, so Close
// never strands a client waiting for a slot that will not come.
func (s *Server) dispatchLoop() {
	defer s.wg.Done()
	m := metrics()
	for conn := range s.queue {
		m.queueDepth.Dec()
		if s.isClosed() {
			s.shedConn(conn)
			continue
		}
		s.sem <- struct{}{}
		m.connsActive.Inc()
		s.wg.Add(1)
		go func(conn net.Conn) {
			defer s.wg.Done()
			defer func() { <-s.sem }()
			defer m.connsActive.Dec()
			s.handleConn(conn)
		}(conn)
	}
}

// shedConn acks a shed — status byte 2 plus the retry-after hint in
// milliseconds — and closes the connection. The write races the client's
// own upload harmlessly: the client reads the ack when it next looks for
// one, and a client that never looks just sees the close.
func (s *Server) shedConn(conn net.Conn) {
	s.shed.Add(1)
	metrics().shed.Inc()
	ms := s.cfg.RetryAfterHint.Milliseconds()
	if ms > 65535 {
		ms = 65535
	}
	buf := [3]byte{ackShed}
	binary.LittleEndian.PutUint16(buf[1:], uint16(ms))
	conn.SetWriteDeadline(time.Now().Add(2 * time.Second)) //nolint:errcheck
	conn.Write(buf[:])                                     //nolint:errcheck — the close is the message of last resort
	conn.Close()
}

// timeoutKind classifies which bound cut a connection, for the
// fedsz_server_timeout_kills_total metric.
type timeoutKind uint8

const (
	timeoutNone timeoutKind = iota
	timeoutIdle
	timeoutUpload
)

// connReader refreshes the idle deadline before each read, so only a
// connection that stops delivering bytes for the whole timeout gets
// dropped. An update deadline, when set, caps every refresh so a
// trickling upload cannot outlive its UploadTimeout.
type connReader struct {
	conn     net.Conn
	idle     time.Duration
	deadline time.Time
	// timedOut records which bound was armed when a read failed with a
	// timeout — by the time the failure surfaces from the decoder the
	// net.Error has been flattened into a corruption message, so the
	// classification must be captured here at the Read.
	timedOut timeoutKind
}

func (c *connReader) Read(p []byte) (int, error) {
	var d time.Time
	armed := timeoutNone
	if c.idle > 0 {
		d = time.Now().Add(c.idle)
		armed = timeoutIdle
	}
	if !c.deadline.IsZero() && (d.IsZero() || c.deadline.Before(d)) {
		d = c.deadline
		armed = timeoutUpload
	}
	if !d.IsZero() {
		if err := c.conn.SetReadDeadline(d); err != nil {
			return 0, err
		}
	}
	n, err := c.conn.Read(p)
	if err != nil {
		var nerr net.Error
		if errors.As(err, &nerr) && nerr.Timeout() {
			c.timedOut = armed
		}
	}
	return n, err
}

// handleConn serves one connection's update loop: magic once, then any
// number of [clientID, wire stream] updates, each acked after the
// Ingestor folded it. The connection ends on a clean EOF at an update
// boundary, on any failed update (acked, then dropped), or on idle/upload
// timeout.
func (s *Server) handleConn(conn net.Conn) {
	defer conn.Close()
	remote := conn.RemoteAddr().String()
	connCtx := context.WithValue(context.Background(), remoteKey{}, remote)
	m := metrics()
	updates, rejected := 0, 0
	span := s.cfg.Tracer.Span("conn", telemetry.A("remote", remote))
	defer func() {
		// recordTimeout: whichever bound cut the connection is known only
		// after the update loop ends.
		span.End(telemetry.A("updates", updates), telemetry.A("rejected", rejected))
	}()
	cr := &connReader{conn: conn, idle: s.cfg.IdleTimeout}
	defer func() {
		switch cr.timedOut {
		case timeoutIdle:
			m.idleKills.Inc()
		case timeoutUpload:
			m.uploadKills.Inc()
		}
	}()
	br := bufio.NewReaderSize(cr, 32<<10)

	var magic [4]byte
	if _, err := io.ReadFull(br, magic[:]); err != nil {
		rejected++
		s.rejectConn(conn, fmt.Errorf("%w: connection magic: %v", core.ErrCorrupt, err))
		return
	}
	preludeBytes := int64(len(magic))
	weighted := false
	var dopts core.DecodeOptions
	switch binary.LittleEndian.Uint32(magic[:]) {
	case connMagic:
	case connMagicWeighted:
		weighted = true
	case connMagicDelta:
		// Delta negotiation: the client proposes a reference epoch; accept
		// only when RefProvider holds that exact baseline, else answer 0 and
		// carry on — the client re-encodes absolute and the connection
		// proceeds identically to FLS1.
		var eb [4]byte
		if _, err := io.ReadFull(br, eb[:]); err != nil {
			rejected++
			s.rejectConn(conn, fmt.Errorf("%w: delta epoch: %v", core.ErrCorrupt, err))
			return
		}
		preludeBytes += int64(len(eb))
		epoch := binary.LittleEndian.Uint32(eb[:])
		var ref *tensor.StateDict
		if s.cfg.RefProvider != nil {
			ref = s.cfg.RefProvider(epoch)
		}
		accept := byte(0)
		if ref != nil {
			accept = 1
			dopts = core.DecodeOptions{Reference: ref, RefEpoch: epoch}
			m.deltaAccepted.Inc()
		} else {
			m.deltaRefused.Inc()
		}
		if _, err := conn.Write([]byte{accept}); err != nil {
			rejected++
			s.rejected.Add(1)
			metrics().connsRejected.Inc()
			return
		}
	default:
		rejected++
		s.rejectConn(conn, fmt.Errorf("%w: bad connection magic", core.ErrCorrupt))
		return
	}

	first := true // update 1 carries the connection prelude in its WireBytes
	for {
		var idb [4]byte
		if _, err := io.ReadFull(br, idb[:]); err != nil {
			if err != io.EOF {
				// Mid-record death (truncated ID, idle timeout): the peer did
				// not end the connection at an update boundary.
				rejected++
				s.rejectConn(conn, fmt.Errorf("%w: update prelude: %v", core.ErrCorrupt, err))
			}
			return
		}
		client := binary.LittleEndian.Uint32(idb[:])
		weight := 1.0
		preludeLen := int64(len(idb))
		if weighted {
			var wb [8]byte
			if _, err := io.ReadFull(br, wb[:]); err != nil {
				rejected++
				s.rejectConn(conn, fmt.Errorf("%w: update weight: %v", core.ErrCorrupt, err))
				return
			}
			preludeLen += int64(len(wb))
			weight = math.Float64frombits(binary.LittleEndian.Uint64(wb[:]))
			if !(weight > 0) || math.IsInf(weight, 0) {
				rejected++
				s.rejectConn(conn, fmt.Errorf("%w: update weight %v", core.ErrCorrupt, weight))
				return
			}
		}
		start := time.Now()

		ctx, cancel := connCtx, context.CancelFunc(func() {})
		if s.cfg.UploadTimeout > 0 {
			ctx, cancel = context.WithTimeout(connCtx, s.cfg.UploadTimeout)
			cr.deadline = time.Now().Add(s.cfg.UploadTimeout)
		}
		wireBytes, dstats, err := s.cfg.Ingestor.IngestStream(ctx, client, weight, dopts, br)
		cancel()
		cr.deadline = time.Time{}
		wireBytes += preludeLen
		if first {
			wireBytes += preludeBytes
			first = false
		}
		if err != nil {
			rejected++
			s.rejected.Add(1)
			m.updatesRejected.Inc()
		} else {
			wall := time.Since(start)
			updates++
			s.updates.Add(1)
			s.wireBytes.Add(wireBytes)
			s.readWaitNS.Add(int64(dstats.ReadWait))
			s.decodeWorkNS.Add(int64(dstats.DecodeWork))
			s.wallNS.Add(int64(wall))
			s.bytesRecycled.Add(dstats.BytesRecycled)
			m.updates.Inc()
			m.wireBytes.Add(uint64(wireBytes))
			m.wireHist.Observe(float64(wireBytes))
			m.decodeHist.Observe(dstats.DecompressTime.Seconds())
			m.overlapHist.Observe(dstats.OverlapRatio())
			s.cfg.Tracer.Event("update",
				telemetry.A("client", client),
				telemetry.A("remote", remote),
				telemetry.A("wire_bytes", wireBytes),
				telemetry.A("decode_us", dstats.DecompressTime.Microseconds()),
				telemetry.A("read_wait_us", dstats.ReadWait.Microseconds()),
				telemetry.A("wall_us", wall.Microseconds()),
				telemetry.A("overlap", dstats.OverlapRatio()),
			)
		}
		writeAck(conn, err)
		if err != nil {
			return
		}
	}
}

// rejectConn accounts and acks a connection-level failure.
func (s *Server) rejectConn(conn net.Conn, err error) {
	s.rejected.Add(1)
	metrics().connsRejected.Inc()
	writeAck(conn, err)
}

func writeAck(conn net.Conn, err error) {
	if err == nil {
		conn.Write([]byte{ackAccepted}) //nolint:errcheck — client failure is its problem
		return
	}
	msg := err.Error()
	if len(msg) > ackMsgLimit {
		msg = msg[:ackMsgLimit]
	}
	buf := make([]byte, 0, 3+len(msg))
	buf = append(buf, ackRejected)
	buf = binary.LittleEndian.AppendUint16(buf, uint16(len(msg)))
	buf = append(buf, msg...)
	conn.Write(buf) //nolint:errcheck
}
