package disk

import (
	"bytes"
	"fmt"
	"sync"
	"testing"

	"repro/internal/sim"
)

// TestStatsConcurrentHammer drives the device from many goroutines while
// others poll Stats, so `go test -race ./internal/disk` proves the counter
// conversion to atomics: the device serializes transfers behind its own
// lock, but statistics are read lock-free from any goroutine.
func TestStatsConcurrentHammer(t *testing.T) {
	clk := sim.NewVirtualClock()
	d, err := New(SmallGeometry, DefaultParams, clk)
	if err != nil {
		t.Fatal(err)
	}
	const workers = 8
	const perWorker = 60
	var wg sync.WaitGroup
	errs := make(chan error, workers)
	stop := make(chan struct{})

	// Pollers: continuous lock-free Stats reads during the hammering.
	var pollers sync.WaitGroup
	for p := 0; p < 2; p++ {
		pollers.Add(1)
		go func() {
			defer pollers.Done()
			for {
				select {
				case <-stop:
					return
				default:
					st := d.Stats()
					if st.Ops < 0 || st.Reads+st.Writes > st.Ops {
						// A torn snapshot would show reads+writes
						// exceeding the op count it accompanied.
						panic(fmt.Sprintf("inconsistent stats snapshot: %+v", st))
					}
				}
			}
		}()
	}

	for w := 0; w < workers; w++ {
		w := w
		wg.Add(1)
		go func() {
			defer wg.Done()
			buf := make([]byte, SectorSize)
			for i := range buf {
				buf[i] = byte(w)
			}
			// Each worker owns a disjoint sector range.
			base := 100 + w*perWorker
			for i := 0; i < perWorker; i++ {
				if err := d.WriteSectors(base+i, buf); err != nil {
					errs <- fmt.Errorf("w%d write: %w", w, err)
					return
				}
				got, err := d.ReadSectors(base+i, 1)
				if err != nil {
					errs <- fmt.Errorf("w%d read: %w", w, err)
					return
				}
				if got[0] != byte(w) {
					errs <- fmt.Errorf("w%d readback got %d", w, got[0])
					return
				}
			}
			errs <- nil
		}()
	}
	wg.Wait()
	close(stop)
	pollers.Wait()
	close(errs)
	for err := range errs {
		if err != nil {
			t.Fatal(err)
		}
	}
	st := d.Stats()
	wantOps := workers * perWorker * 2
	if st.Ops != wantOps {
		t.Fatalf("Ops = %d, want %d", st.Ops, wantOps)
	}
	if st.Reads != workers*perWorker || st.Writes != workers*perWorker {
		t.Fatalf("Reads/Writes = %d/%d, want %d each", st.Reads, st.Writes, workers*perWorker)
	}
	if st.SectorsRead != workers*perWorker || st.SectorsWritten != workers*perWorker {
		t.Fatalf("Sectors = %d/%d, want %d each", st.SectorsRead, st.SectorsWritten, workers*perWorker)
	}
}

// TestReadScatteredConcurrentWriters runs the drive-order reader while other
// goroutines write elsewhere on the disk: the reader samples the head under
// the device lock, so `go test -race` checks that sampling, and every
// address is still read exactly once with its own data.
func TestReadScatteredConcurrentWriters(t *testing.T) {
	d, err := New(SmallGeometry, DefaultParams, sim.NewVirtualClock())
	if err != nil {
		t.Fatal(err)
	}
	addrs := scatterAddrs(t, d, 3, 200, 4)
	perCyl := SmallGeometry.SectorsPerTrack * SmallGeometry.TracksPerCylinder
	var wg sync.WaitGroup
	for w := 0; w < 3; w++ {
		w := w
		wg.Add(1)
		go func() {
			defer wg.Done()
			buf := make([]byte, SectorSize)
			for i := 0; i < 100; i++ {
				// Cylinders 10 and up: away from the scattered sectors.
				if err := d.WriteSectors((10+w*5)*perCyl+i, buf); err != nil {
					t.Error(err)
					return
				}
			}
		}()
	}
	calls := make([]int, len(addrs))
	ReadScattered(d, addrs, 2, func(i int, data []byte, _ int, err error) {
		calls[i]++
		if err != nil || !bytes.Equal(data, sectorImage(addrs[i])) {
			t.Errorf("addr %d: %v", addrs[i], err)
		}
	})
	wg.Wait()
	for i, n := range calls {
		if n != 1 {
			t.Fatalf("index %d called %d times", i, n)
		}
	}
}
