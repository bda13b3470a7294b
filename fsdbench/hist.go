package main

import (
	"math/bits"
	"time"
)

// histSub is the number of buckets per power of two of a hist, so a
// quantile it reports is within 1/(2*histSub) of the value it stands for.
const histSub = 64

// histOctaves covers durations up to 2^histOctaves ns, about 18 minutes;
// longer ones land in the last bucket.
const histOctaves = 40

// histBuckets holds the values below histSub one by one, then histSub
// buckets for each power of two from 2^6 up.
const histBuckets = (histOctaves - 5) * histSub

// hist is a log-linear histogram of durations. Its memory does not grow
// with the number of samples, so the benchmark's own footprint does not
// follow how many operations a run completes.
type hist struct {
	n      int64
	counts [histBuckets]int64
}

func histIndex(d time.Duration) int {
	v := uint64(max(d, 0))
	if v < histSub {
		return int(v)
	}
	oct := bits.Len64(v) - 1 // at least 6
	i := (oct-5)*histSub + int(v>>(oct-6)) - histSub
	return min(i, histBuckets-1)
}

func (h *hist) add(d time.Duration) {
	h.counts[histIndex(d)]++
	h.n++
}

func (h *hist) merge(o *hist) {
	for i, c := range o.counts {
		h.counts[i] += c
	}
	h.n += o.n
}

// quantile is the middle of the bucket holding the nearest-rank
// q-quantile; 0 when h is empty.
func (h *hist) quantile(q float64) time.Duration {
	if h.n == 0 {
		return 0
	}
	rank := max(int64(q*float64(h.n)+0.999999), 1)
	var seen int64
	for i, c := range h.counts {
		if seen += c; seen < rank {
			continue
		}
		if i < histSub {
			return time.Duration(i)
		}
		oct := i/histSub + 5
		lo := uint64(histSub+i%histSub) << (oct - 6)
		return time.Duration(lo + (uint64(1)<<(oct-6))/2)
	}
	return 0
}
