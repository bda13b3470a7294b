package core

import (
	"fmt"
	"time"

	"repro/internal/btree"
	"repro/internal/disk"
	"repro/internal/parscan"
	"repro/internal/sim"
)

// VerifyStats reports what a full-volume verification examined.
type VerifyStats struct {
	Entries        int
	Leaders        int
	LeadersPending int // deferred leaders verified from memory
	Symlinks       int
	// Problems is in canonical order: grouped by name-table entry in key
	// order (the B-tree's scan order), and within an entry in check order
	// (decode, runs, byte size, leader). The order — and every string —
	// is identical at every CheckWorkers setting.
	Problems []string
	Elapsed  time.Duration

	// Parallel-scan accounting (ISSUE 10). Workers is the pool width the
	// pass actually used; Steals counts work-stealing migrations (load
	// balance diagnostics — nondeterministic, excluded from output
	// equality). The phase splits let fsdctl and the pfsck bench separate
	// device time from check CPU.
	Workers       int
	Steals        int
	WalkElapsed   time.Duration // name-table walk + entry snapshot
	CheckElapsed  time.Duration // parallel decode + cross-check phases
	LeaderElapsed time.Duration // leader sweep (ordered reads + checks)
	CheckCPU      time.Duration // total worker CPU across all phases
}

// verifyChunk is the per-entry granularity the pool schedules over: big
// enough that chunk claim overhead vanishes, small enough that stealing
// can rebalance a skewed region (one directory of huge files, say).
const verifyChunk = 256

// vEntry is one snapshot name-table entry being verified.
type vEntry struct {
	name string
	ver  uint32
	e    *Entry // nil when the key or entry failed to decode
	bad  string // the pre-formatted decode problem when e is nil
}

// Verify walks the entire volume checking every invariant the mutually
// checking data structures provide (Section 5.8): B+tree structure, entry
// decodability, run-table sanity (no overlaps, no metadata overlap), and
// the leader page of every file against its name-table entry. It is the
// FSD analogue of fsck — but unlike fsck it is advisory: FSD never needs it
// for recovery.
//
// The scan is parallel (pFSCK-style) across Config.CheckWorkers:
//
//  1. Walk: snapshot every (key, entry) pair from the name table in key
//     order — the only phase that needs the B-tree itself. Cached pages
//     are used as cached; every other page comes from one address-ordered,
//     coalesced sweep of the home copies (newWalkPager).
//  2. Check: a worker pool decodes entries and claims every data page
//     into a striped owner table (lowest entry index wins a collision),
//     then cross-checks runs against the metadata range, the owner
//     table, and the VAM, and byte sizes against page counts.
//  3. Leaders: a single driver reads every home leader page in drive
//     order (disk.ReadScattered: cylinders ascending, shortest
//     positioning time first inside each) — no per-worker seek thrash,
//     no revolution per track, and media faults charge the health budget
//     exactly once — and the pool checks the images against their
//     entries.
//
// Problems are accumulated per entry and emitted grouped by entry in key
// order, so the report is byte-identical at every worker count.
func (v *Volume) Verify() (_ VerifyStats, err error) {
	defer v.span("verify")(&err)
	// Exclusive: a whole-volume audit wants a quiescent name table. Log
	// forces (WaitCommitted, the ticker's in-flight tick) can still run,
	// so the shared maps they touch are locked at their use sites below.
	v.mu.Lock()
	defer v.mu.Unlock()
	var st VerifyStats
	if v.closed.Load() {
		return st, ErrClosed
	}
	// With the async pipeline, quiescent also means applied: drain the
	// intent queue so the audit sees every acknowledged mutation.
	if err := v.DrainIntents(); err != nil {
		return st, err
	}
	start := v.clk.Now() // the walk's sweep counts toward WalkElapsed
	return v.verifyTable(v.newWalkPager(), start, disk.ReadScattered)
}

// sectorBatchReader reads one sector at each address with per-sector
// retries, calling fn once per address index (disk.ReadScattered's shape).
type sectorBatchReader func(d *disk.Disk, addrs []int, retries int, fn func(i int, data []byte, retried int, err error))

// verifyTable runs Verify's three phases over the name table as the pager p
// presents it, reading the home leaders with read; start is when the pass
// began. The caller holds v.mu exclusively.
func (v *Volume) verifyTable(p btree.Pager, start time.Duration, read sectorBatchReader) (VerifyStats, error) {
	var st VerifyStats
	st.Workers = v.cfg.checkWorkers()
	nt, err := btree.Open(p)
	if err == nil {
		err = nt.Check()
	}
	if err != nil {
		return st, fmt.Errorf("core: name table structure: %w", err)
	}

	// Phase 1: snapshot the table in key order. Keys and values alias the
	// page images, so the snapshot copies them out; the pool then never
	// touches the B-tree.
	var raw []vEntry
	err = nt.Scan(nil, func(k, val []byte) bool {
		name, ver, ok := splitKey(k)
		if !ok {
			raw = append(raw, vEntry{bad: fmt.Sprintf("undecodable key % x", k)})
			return true
		}
		e, derr := decodeEntry(name, ver, append([]byte(nil), val...))
		ve := vEntry{name: name, ver: ver, e: e}
		if derr != nil {
			ve.e = nil
			ve.bad = fmt.Sprintf("%s!%d: %v", name, ver, derr)
		}
		raw = append(raw, ve)
		return true
	})
	if err != nil {
		return st, err
	}
	st.WalkElapsed = v.clk.Now() - start

	// Phase 2: parallel claim + cross-check over entry chunks. Problems
	// land in per-entry slots — each entry belongs to exactly one chunk,
	// so no two workers write the same slot — and are concatenated in
	// entry order afterwards.
	probs := make([][]string, len(raw))
	owners := parscan.NewOwnerTable(v.lay.total)
	counts := make([]VerifyStats, (len(raw)+verifyChunk-1)/verifyChunk)
	type leaderRef struct {
		idx  int // entry index
		addr int
	}
	leaderRefs := make([][]leaderRef, len(counts))
	checkStart := v.clk.Now()

	chunkRange := func(c int) (lo, hi int) {
		lo = c * verifyChunk
		hi = lo + verifyChunk
		if hi > len(raw) {
			hi = len(raw)
		}
		return
	}

	// Pass 2a: decode bookkeeping + page claims. Claims must all land
	// before any worker reads the owner table, so this pass is a barrier.
	claimStats, _ := parscan.Run(st.Workers, len(counts), func(w *parscan.Worker, c int) error {
		lo, hi := chunkRange(c)
		for i := lo; i < hi; i++ {
			ve := raw[i]
			w.Charge(sim.CostBTreeOp / 4)
			if ve.e == nil {
				continue
			}
			for _, r := range ve.e.Runs {
				if int(r.Start)+int(r.Len) > v.lay.total || r.Len == 0 {
					continue // reported in pass 2b
				}
				for p := int(r.Start); p < int(r.Start)+int(r.Len); p++ {
					if !v.lay.metaRange(p) {
						owners.Claim(p, int32(i))
					}
				}
			}
		}
		return nil
	})

	// Pass 2b: the cross-check proper, reading the now-complete owner
	// table. Same chunking, so problems stay with their entries.
	checkStats, _ := parscan.Run(st.Workers, len(counts), func(w *parscan.Worker, c int) error {
		lo, hi := chunkRange(c)
		part := &counts[c]
		addProblem := func(i int, format string, args ...interface{}) {
			probs[i] = append(probs[i], fmt.Sprintf(format, args...))
		}
		for i := lo; i < hi; i++ {
			ve := raw[i]
			if ve.e == nil {
				addProblem(i, "%s", ve.bad)
				continue
			}
			e := ve.e
			part.Entries++
			w.Charge(sim.CostBTreeOp)
			if e.Class == SymLink {
				part.Symlinks++
				if len(e.Runs) != 0 {
					addProblem(i, "%s!%d: symlink with data pages", ve.name, ve.ver)
				}
				continue
			}
			// Run-table sanity: in range, not in metadata, no overlaps,
			// allocated in the VAM.
			for _, r := range e.Runs {
				if int(r.Start)+int(r.Len) > v.lay.total || r.Len == 0 {
					addProblem(i, "%s!%d: run [%d,+%d) out of range", ve.name, ve.ver, r.Start, r.Len)
					continue
				}
				w.Charge(time.Duration(r.Len) * sim.CostChecksumPage)
				for p := int(r.Start); p < int(r.Start)+int(r.Len); p++ {
					if v.lay.metaRange(p) {
						addProblem(i, "%s!%d: page %d inside metadata", ve.name, ve.ver, p)
						break
					}
					if own := owners.Owner(p); own != int32(i) {
						prev := raw[own]
						addProblem(i, "%s!%d: page %d also owned by %s!%d", ve.name, ve.ver, p, prev.name, prev.ver)
						break
					}
					v.vmMu.Lock()
					free := v.vm.IsFree(p)
					v.vmMu.Unlock()
					if free {
						addProblem(i, "%s!%d: page %d owned but marked free", ve.name, ve.ver, p)
						break
					}
				}
			}
			if e.ByteSize > uint64(e.Pages())*512 {
				addProblem(i, "%s!%d: byte size %d exceeds %d pages", ve.name, ve.ver, e.ByteSize, e.Pages())
			}
			// Leader cross-check: deferred leaders are verified from the
			// in-memory image here; home leaders queue for the ordered
			// disk sweep in phase 3.
			addr, has := e.LeaderAddr()
			if !has {
				continue
			}
			part.Leaders++
			v.lmu.Lock()
			pending, okp := v.pendingLeaders[addr]
			if okp {
				pending = append([]byte(nil), pending...)
			}
			v.lmu.Unlock()
			if okp {
				part.LeadersPending++
				w.Charge(sim.CostChecksumPage)
				if err := verifyLeader(pending, e); err != nil {
					addProblem(i, "%v", err)
				}
				continue
			}
			leaderRefs[c] = append(leaderRefs[c], leaderRef{idx: i, addr: addr})
		}
		return nil
	})
	for _, part := range counts {
		st.Entries += part.Entries
		st.Symlinks += part.Symlinks
		st.Leaders += part.Leaders
		st.LeadersPending += part.LeadersPending
	}
	// Charge the pool's CPU critical path — the balanced share, which is
	// deterministic and at one worker equals the sequential total.
	v.cpu.Charge(claimStats.BalancedCPU() + checkStats.BalancedCPU())
	st.CheckCPU += claimStats.TotalCPU() + checkStats.TotalCPU()
	st.Steals += claimStats.Steals() + checkStats.Steals()
	st.CheckElapsed = v.clk.Now() - checkStart

	// Phase 3: the leader sweep. A single driver reads every home leader
	// in drive order — cylinders ascending, the nearest sector next inside
	// each, so the head crosses the disk once without waiting a revolution
	// per track, and a damaged sector's retries charge the health budget
	// exactly once however many workers are checking — then the pool
	// verifies the images against their entries. Refs stay in entry order
	// and problems in per-entry slots, so the read order never shows.
	leaderStart := v.clk.Now()
	var refs []leaderRef
	for _, lr := range leaderRefs {
		refs = append(refs, lr...)
	}
	addrs := make([]int, len(refs))
	for j, ref := range refs {
		addrs[j] = ref.addr
	}
	bufs := make([][]byte, len(refs))
	read(v.d, addrs, v.cfg.readRetries(), func(j int, buf []byte, retried int, rerr error) {
		v.noteReadFault(retried, rerr)
		if rerr != nil {
			ve := raw[refs[j].idx]
			probs[refs[j].idx] = append(probs[refs[j].idx], fmt.Sprintf("%s!%d: leader unreadable: %v", ve.name, ve.ver, rerr))
			return
		}
		bufs[j] = buf
	})
	leaderChunks := (len(refs) + verifyChunk - 1) / verifyChunk
	leaderStats, _ := parscan.Run(st.Workers, leaderChunks, func(w *parscan.Worker, c int) error {
		lo := c * verifyChunk
		hi := lo + verifyChunk
		if hi > len(refs) {
			hi = len(refs)
		}
		for j := lo; j < hi; j++ {
			if bufs[j] == nil {
				continue
			}
			w.Charge(sim.CostChecksumPage)
			if err := verifyLeader(bufs[j], raw[refs[j].idx].e); err != nil {
				probs[refs[j].idx] = append(probs[refs[j].idx], fmt.Sprintf("%v", err))
			}
		}
		return nil
	})
	v.cpu.Charge(leaderStats.BalancedCPU())
	st.CheckCPU += leaderStats.TotalCPU()
	st.Steals += leaderStats.Steals()
	st.LeaderElapsed = v.clk.Now() - leaderStart

	// Canonical merge: per-entry problem groups concatenated in key order.
	for _, ps := range probs {
		st.Problems = append(st.Problems, ps...)
	}
	st.Elapsed = v.clk.Now() - start
	return st, nil
}
