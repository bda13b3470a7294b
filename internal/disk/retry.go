package disk

import (
	"errors"
	"sort"
)

// ReadSectorsRetry reads a run of sectors like ReadSectors, but retries a
// media-damage failure in place up to retries times — the read-side analogue
// of WriteSectorsRetry, for transient faults that clear on a re-read. It
// returns the data, how many retries were spent (so callers can charge an
// error budget), and the final error: nil on success, the last DamagedError
// when the budget ran out, or the original error for non-media failures
// (ErrHalted, out of range), which are never retried.
func ReadSectorsRetry(d *Disk, addr, n, retries int) (data []byte, retried int, err error) {
	data, err = d.ReadSectors(addr, n)
	if err == nil {
		return
	}
	var de *DamagedError
	if !errors.As(err, &de) {
		return
	}
	// One damaged sector fails the whole bulk transfer, and re-running the
	// full run makes every healthy sector face the fault model again just
	// to reach the one that failed — under latent decay, each pass can
	// permanently kill sectors the previous pass read fine. Retry per
	// sector instead, the read-side analogue of the write path's prefix
	// resume: each sector is read once plus its own in-place budget, so a
	// long run needs only per-sector luck, not end-to-end luck.
	buf := make([]byte, n*SectorSize)
	for i := 0; i < n; i++ {
		for tries := 0; ; tries++ {
			s, rerr := d.ReadSectors(addr+i, 1)
			if rerr == nil {
				copy(buf[i*SectorSize:], s)
				break
			}
			if !errors.As(rerr, &de) {
				return nil, retried, rerr
			}
			if tries >= retries {
				return nil, retried, rerr
			}
			retried++
		}
	}
	return buf, retried, nil
}

// ReadScattered reads one sector at each of addrs. Each read is its own
// request with ReadSectorsRetry's per-sector in-place retries, and fn is
// called once per address, in service order, with the address's index in
// addrs, its data, the retries spent and the final error.
//
// The service order is the drive's: cylinders in ascending order, and inside
// a cylinder always the remaining sector with the shortest positioning time
// (seek plus rotational wait) from the head's current cylinder and angle,
// ties to the lower address. A track switch inside a cylinder costs nothing
// in this model, so sectors at distinct slots on a cylinder's tracks are read in
// about one revolution instead of one per track, as ascending order needs.
// The head position is sampled before each read, so requests other
// goroutines interleave are taken into account.
func ReadScattered(d *Disk, addrs []int, retries int, fn func(i int, data []byte, retried int, err error)) {
	order := make([]int, len(addrs))
	for i := range order {
		order[i] = i
	}
	sort.SliceStable(order, func(a, b int) bool { return addrs[order[a]] < addrs[order[b]] })
	for lo := 0; lo < len(order); {
		cyl := d.geom.Cylinder(addrs[order[lo]])
		hi := lo + 1
		for hi < len(order) && d.geom.Cylinder(addrs[order[hi]]) == cyl {
			hi++
		}
		left := order[lo:hi]
		for len(left) > 0 {
			k := d.nearest(addrs, left)
			i := left[k]
			left = append(left[:k], left[k+1:]...)
			data, retried, err := ReadSectorsRetry(d, addrs[i], 1, retries)
			fn(i, data, retried, err)
		}
		lo = hi
	}
}

// nearest returns the position in cands (indices into addrs, in ascending
// address order) of the sector with the shortest positioning time from
// where the head is now; the first of equals wins.
func (d *Disk) nearest(addrs, cands []int) int {
	d.mu.Lock()
	defer d.mu.Unlock()
	best, bestT := 0, d.positioning(addrs[cands[0]])
	for k := 1; k < len(cands); k++ {
		if t := d.positioning(addrs[cands[k]]); t < bestT {
			best, bestT = k, t
		}
	}
	return best
}

// WriteSectorsRetry writes data at addr like WriteSectors, but absorbs the
// write-side fault model. A failed write persists the prefix of the run
// (sectors before the failing one are on the platter), so the retry resumes
// at the failing sector rather than re-running the whole transfer: a long
// run needs only per-sector luck, not end-to-end luck, and every fault that
// makes progress resets the in-place retry budget (retries is per sector,
// not per run).
//
// A failing sector that reads as damaged is probed with one single-sector
// rewrite before a spare is spent: a transient failure over media that
// merely held old damage (a decayed sector being rewritten) clears under
// the probe, while a bad-on-write or stuck defect either fails it or stays
// damaged behind an apparent success — only then is the sector retired
// with Remap. The remap loop is bounded by the spare pool (ErrNoSpares
// ends it).
//
// It returns how many in-place retries and how many remaps were spent, so
// callers can charge an error budget, plus the final error: nil on success,
// the last DamagedError when the retry budget ran out, ErrNoSpares when the
// pool is exhausted, or the original error for non-media failures (ErrHalted,
// out of range), which are never retried.
func WriteSectorsRetry(d *Disk, addr int, data []byte, retries int) (retried, remapped int, err error) {
	tries := 0
	for {
		err = d.WriteSectors(addr, data)
		if err == nil {
			return
		}
		var de *DamagedError
		if !errors.As(err, &de) {
			return
		}
		if de.Addr > addr && de.Addr < addr+len(data)/SectorSize {
			// The prefix persisted: resume at the failing sector. Progress
			// restores the in-place budget.
			data = data[(de.Addr-addr)*SectorSize:]
			addr = de.Addr
			tries = 0
		}
		if d.IsDamaged(de.Addr) {
			// Damaged could mean a defect born under this write — or old
			// damage the write was about to clear, hit by an unrelated
			// transient fault. One single-sector probe tells them apart.
			perr := d.WriteSectors(de.Addr, data[:SectorSize])
			retried++
			if perr == nil && !d.IsDamaged(de.Addr) {
				// Cleared: transient over stale damage, no spare needed.
				if len(data) == SectorSize {
					err = nil
					return
				}
				data = data[SectorSize:]
				addr++
				tries = 0
				continue
			}
			// The probe failed too, or "succeeded" with the damage still
			// there (a stuck defect absorbs writes silently): retire it.
			if rerr := d.Remap(de.Addr); rerr != nil {
				err = rerr
				return
			}
			remapped++
			tries = 0
			continue
		}
		if tries >= retries {
			return
		}
		tries++
		retried++
	}
}
