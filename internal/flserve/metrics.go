package flserve

// Server metrics: the ingest-side families every Server in the process
// shares on telemetry.Default(). Registration is lazy (first Server) and
// get-or-create, so tests running many servers concurrently and a
// production process running one both work; the counters are monotonic
// process-wide totals, exactly what a Prometheus scrape wants.

import (
	"sync"

	"repro/internal/telemetry"
)

type serverMetrics struct {
	connsAccepted *telemetry.Counter
	connsActive   *telemetry.Gauge
	connsRejected *telemetry.Counter
	maxConns      *telemetry.Gauge
	idleKills     *telemetry.Counter
	uploadKills   *telemetry.Counter
	shed          *telemetry.Counter
	queueDepth    *telemetry.Gauge

	updates         *telemetry.Counter
	updatesRejected *telemetry.Counter
	wireBytes       *telemetry.Counter
	wireHist        *telemetry.Histogram
	decodeHist      *telemetry.Histogram
	overlapHist     *telemetry.Histogram

	deltaAccepted *telemetry.Counter
	deltaRefused  *telemetry.Counter
}

var metrics = sync.OnceValue(func() *serverMetrics {
	r := telemetry.Default()
	return &serverMetrics{
		connsAccepted: r.Counter("fedsz_server_connections_accepted_total",
			"Connections accepted by the ingest listener."),
		connsActive: r.Gauge("fedsz_server_connections_active",
			"Connections currently being served."),
		connsRejected: r.Counter("fedsz_server_connections_rejected_total",
			"Connections dropped for protocol failures (bad magic, truncated prelude)."),
		maxConns: r.Gauge("fedsz_server_max_conns",
			"Configured MaxConns bound; fedsz_server_connections_active/fedsz_server_max_conns is accept-loop saturation."),
		idleKills: r.Counter("fedsz_server_timeout_kills_total",
			"Connections killed by a timeout, by kind.", telemetry.L("kind", "idle")),
		uploadKills: r.Counter("fedsz_server_timeout_kills_total",
			"Connections killed by a timeout, by kind.", telemetry.L("kind", "upload")),
		shed: r.Counter("fedsz_server_shed_total",
			"Connections refused by admission control (ingest queue full) — load declined, not failures."),
		queueDepth: r.Gauge("fedsz_server_queue_depth",
			"Connections waiting in the bounded ingest queue for a serving slot."),
		updates: r.Counter("fedsz_server_updates_total",
			"Updates decoded, verified, and folded by the ingestor."),
		updatesRejected: r.Counter("fedsz_server_updates_rejected_total",
			"Updates rejected by decode, verification, or the ingestor."),
		wireBytes: r.Counter("fedsz_server_wire_bytes_total",
			"Raw socket bytes across accepted updates."),
		wireHist: r.Histogram("fedsz_server_update_wire_bytes",
			"Per-update wire size (framing included).", telemetry.ByteBuckets),
		decodeHist: r.Histogram("fedsz_server_decode_seconds",
			"Per-update decode wall time, clientID through ingest return.", telemetry.DurationBuckets),
		overlapHist: r.Histogram("fedsz_server_overlap_ratio",
			"Per-update fraction of decode work hidden behind receive (0 = strictly sequential, 1 = fully overlapped).",
			telemetry.RatioBuckets),
		deltaAccepted: r.Counter("fedsz_server_delta_negotiations_total",
			"FLS2 delta negotiations, by outcome.", telemetry.L("outcome", "accepted")),
		deltaRefused: r.Counter("fedsz_server_delta_negotiations_total",
			"FLS2 delta negotiations, by outcome.", telemetry.L("outcome", "refused")),
	}
})
