package flserve

import (
	"io"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/netsim"
	"repro/internal/telemetry"
)

// TestSnapshotScrapeUnderLoad hammers Snapshot() and a full Prometheus
// render from scraper goroutines while uploads are in flight — the
// -race proof that the server's counters and the registry are safe to
// read concurrently with the ingest hot path.
func TestSnapshotScrapeUnderLoad(t *testing.T) {
	const n = 16
	streams, _ := compressUpdates(t, n)
	srv, err := Listen("127.0.0.1:0", Config{Ingestor: newCollector()})
	if err != nil {
		t.Fatal(err)
	}

	var stopScrape atomic.Bool
	var scrapes sync.WaitGroup
	for g := 0; g < 4; g++ {
		scrapes.Add(1)
		go func() {
			defer scrapes.Done()
			for !stopScrape.Load() {
				st := srv.Snapshot()
				if st.Updates < 0 || st.WireBytes < 0 || st.Rejected < 0 {
					panic("snapshot went negative")
				}
				if r := st.OverlapRatio(); r < 0 || r > 1 {
					panic("overlap ratio out of [0,1]")
				}
				if err := telemetry.Default().WritePrometheus(io.Discard); err != nil {
					panic(err)
				}
			}
		}()
	}

	uploadAll(t, srv.Addr().String(), streams, netsim.Link{})
	if err := srv.Close(); err != nil {
		t.Fatal(err)
	}
	stopScrape.Store(true)
	scrapes.Wait()

	st := srv.Snapshot()
	if st.Updates != n || st.Rejected != 0 {
		t.Fatalf("final snapshot %+v, want %d updates / 0 rejected", st, n)
	}
	if st.WireBytes == 0 || st.DecodeWork == 0 {
		t.Fatalf("final snapshot missing accounting: %+v", st)
	}
}
