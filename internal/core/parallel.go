package core

import (
	"slices"
	"sync"

	"metablocking/internal/arena"
	"metablocking/internal/entity"
	"metablocking/internal/floatsum"
	"metablocking/internal/obs"
	"metablocking/internal/par"
)

// shard returns a Graph view sharing the immutable state (blocks, Entity
// Index, per-block cardinalities, degrees) but with private ScanCount
// scratch, so multiple shards can traverse concurrently. Scratch comes
// from the graph's pool; parallelRanges recycles it when the shard's work
// is done.
func (g *Graph) shard() *Graph {
	ng := *g
	ng.sc = g.getScratch()
	return &ng
}

func (g *Graph) getScratch() *scanScratch {
	if v := g.scratchPool.Get(); v != nil {
		return v.(*scanScratch)
	}
	return &scanScratch{cells: make([]scanCell, g.blocks.NumEntities)}
}

// forEachNodeRange is ForEachNode restricted to node IDs in [lo, hi).
func (g *Graph) forEachNodeRange(lo, hi int, fn func(i entity.ID, neighbors []entity.ID, weights []float64)) {
	g.scanNodeRange(lo, hi, false, fn)
}

// scanNodeRange visits the nodes of [lo, hi) in ascending or descending ID
// order.
func (g *Graph) scanNodeRange(lo, hi int, descending bool, fn func(i entity.ID, neighbors []entity.ID, weights []float64)) {
	tick := obsTick{o: g.obs, m: g.meter}
	var weighed int64
	for id := lo; id < hi; id++ {
		if tick.step() {
			break
		}
		i := entity.ID(id)
		if descending {
			i = entity.ID(lo + hi - 1 - id)
		}
		if g.index.NumBlocks(i) == 0 {
			continue
		}
		neighbors := g.scanNeighborhood(i)
		if len(neighbors) == 0 {
			continue
		}
		weights := g.fillWeights(i, neighbors)
		weighed += int64(len(neighbors))
		fn(i, neighbors, weights)
	}
	tick.flush()
	g.obs.Counter(obs.CtrEdgesWeighted).Add(weighed)
}

// forEachEdgeRange is ForEachEdge restricted to edges whose emitting
// endpoint (the smaller ID for Dirty ER, the E1 member for Clean-Clean ER)
// lies in [lo, hi). Every emitted pair's canonical A is the emitting
// endpoint, so per-range result buckets cover disjoint ascending A ranges.
func (g *Graph) forEachEdgeRange(lo, hi int, fn func(i, j entity.ID, w float64)) {
	tick := obsTick{o: g.obs, m: g.meter}
	clean := g.blocks.Task == entity.CleanClean
	if clean && hi > g.blocks.Split {
		hi = g.blocks.Split
	}
	var weighed int64
	for id := lo; id < hi; id++ {
		if tick.step() {
			break
		}
		i := entity.ID(id)
		bi := g.index.NumBlocks(i)
		if bi == 0 {
			continue
		}
		var di int32
		if g.degrees != nil {
			di = g.degrees[i]
		}
		cells := g.sc.cells
		for _, j := range g.scanNeighborhood(i) {
			if !clean && j < i {
				continue
			}
			var dj int32
			if g.degrees != nil {
				dj = g.degrees[j]
			}
			weighed++
			fn(i, j, g.ctx.weight(cells[j].common, bi, g.index.NumBlocks(j), di, dj))
		}
	}
	tick.flush()
	g.obs.Counter(obs.CtrEdgesWeighted).Add(weighed)
}

// meanOf is the exact neighborhood mean (see internal/floatsum), computed
// with this graph's persistent accumulator so the partials buffer is
// reused across every node of a traversal — floatsum.Mean's stack buffer
// escapes once per call. Identical Add sequence and rounding, so the
// threshold is bit-identical.
func (g *Graph) meanOf(xs []float64) float64 {
	switch len(xs) {
	case 0:
		return 0
	case 1:
		return xs[0]
	}
	a := &g.sc.meanAcc
	a.Reset()
	for _, x := range xs {
		a.Add(x)
	}
	return a.Sum() / float64(len(xs))
}

// parallelRanges splits [0, n) into roughly equal chunks, one per worker,
// and runs fn(worker, lo, hi) concurrently on shard copies of the graph.
// workers must already be resolved with par.Resolve; trailing workers with
// an empty chunk are not started, so fn may index per-worker buckets with
// its worker argument directly.
func (g *Graph) parallelRanges(workers int, fn func(w *Graph, worker, lo, hi int)) {
	g.parallelRangesIn(0, g.blocks.NumEntities, workers, fn)
}

// parallelRangesIn is parallelRanges over the node IDs of [from, to).
func (g *Graph) parallelRangesIn(from, to, workers int, fn func(w *Graph, worker, lo, hi int)) {
	if workers <= 1 {
		fn(g, 0, from, to)
		return
	}
	var wg sync.WaitGroup
	chunk := (to - from + workers - 1) / workers
	for w := 0; w < workers; w++ {
		lo := from + w*chunk
		hi := lo + chunk
		if hi > to {
			hi = to
		}
		if lo >= hi {
			break
		}
		wg.Add(1)
		go func(worker, lo, hi int) {
			defer wg.Done()
			s := g.shard()
			fn(s, worker, lo, hi)
			g.scratchPool.Put(s.sc)
		}(w, lo, hi)
	}
	wg.Wait()
}

// PruneParallel applies the pruning algorithm using the given number of
// workers (0 or negative = GOMAXPROCS) and returns the same retained
// comparisons as Prune, in a canonical order. It supports the Optimized
// Edge Weighting only; node-centric sharding by ID range keeps every
// neighborhood on one worker, so the per-node criteria are computed exactly
// as in the serial implementation.
func (g *Graph) PruneParallel(a Algorithm, workers int) []entity.Pair {
	if workers == 0 {
		workers = -1 // historical PruneParallel convention: 0 = GOMAXPROCS
	}
	workers = par.Resolve(workers, g.blocks.NumEntities)
	g.obs.Gauge(obs.GaugeWorkersPrune).Set(int64(workers))
	switch a {
	case CEP:
		return g.cepParallel(workers)
	case WEP:
		return g.wepParallel(workers)
	case CNP:
		return g.cnpParallel(workers)
	case WNP:
		return g.wnpParallel(workers)
	case RedefinedCNP:
		return g.redefinedCNPParallel(false, workers)
	case ReciprocalCNP:
		return g.redefinedCNPParallel(true, workers)
	case RedefinedWNP:
		return g.redefinedWNPParallel(false, workers)
	case ReciprocalWNP:
		return g.redefinedWNPParallel(true, workers)
	default:
		out := g.Prune(a)
		sortPairs(out)
		return out
	}
}

func pairLess(p, q entity.Pair) bool {
	if p.A != q.A {
		return p.A < q.A
	}
	return p.B < q.B
}

func comparePairs(p, q entity.Pair) int {
	switch {
	case p.A < q.A:
		return -1
	case p.A > q.A:
		return 1
	case p.B < q.B:
		return -1
	case p.B > q.B:
		return 1
	}
	return 0
}

// pairKeys pools the packed-key buffers of concurrent sortPairs calls
// (sortBucketsConcurrently sorts every worker bucket at once).
var pairKeys arena.Pool[uint64]

// sortPairs orders pairs canonically by (A, B). Exact duplicates (the
// redundant comparisons of CNP/WNP) are indistinguishable, so the unstable
// sort is deterministic. Large slices are sorted through packed uint64
// keys — IDs are non-negative, so (A, B) lexicographic order equals the
// numeric order of A<<32|B — because the specialized slices.Sort beats the
// comparison-function sort by a wide margin on the pair-assembly path.
func sortPairs(pairs []entity.Pair) {
	if len(pairs) < 64 {
		slices.SortFunc(pairs, comparePairs)
		return
	}
	b := pairKeys.GetCap(len(pairs))
	keys := b.S[:len(pairs)]
	for i, p := range pairs {
		keys[i] = uint64(uint32(p.A))<<32 | uint64(uint32(p.B))
	}
	slices.Sort(keys)
	for i, k := range keys {
		pairs[i] = entity.Pair{A: int32(k >> 32), B: int32(uint32(k))}
	}
	b.S = keys
	pairKeys.Put(b)
}

// assembleRangeBuckets turns per-worker buckets produced from disjoint
// ascending emitting-endpoint ranges (forEachEdgeRange, the mark reducers)
// into one canonically ordered slice: each bucket is sorted concurrently,
// and because bucket b's pairs all have smaller A than bucket b+1's, the
// sorted buckets concatenate into a globally sorted result — no k-way
// merge and no global sort.
func assembleRangeBuckets(buckets [][]entity.Pair) []entity.Pair {
	sortBucketsConcurrently(buckets)
	total := 0
	for _, b := range buckets {
		total += len(b)
	}
	out := make([]entity.Pair, 0, total)
	for _, b := range buckets {
		out = append(out, b...)
	}
	return out
}

// assembleNodeBuckets merges per-worker buckets whose pairs may interleave
// across the whole ID space (node-centric traversals emit MakePair(i, j)
// with j on either side of the worker's range): each bucket is sorted
// concurrently, then adjacent runs are merged pairwise — also
// concurrently — into ping-pong buffers until one sorted run remains.
func assembleNodeBuckets(buckets [][]entity.Pair) []entity.Pair {
	sortBucketsConcurrently(buckets)

	// Pack the sorted buckets into one backing array, tracking run bounds.
	total := 0
	runs := make([]int, 0, len(buckets)+1)
	runs = append(runs, 0)
	for _, b := range buckets {
		if len(b) > 0 {
			total += len(b)
			runs = append(runs, total)
		}
	}
	cur := make([]entity.Pair, total)
	{
		off := 0
		for _, b := range buckets {
			off += copy(cur[off:], b)
		}
	}
	if len(runs) <= 2 {
		return cur
	}
	tmp := make([]entity.Pair, total)
	for len(runs) > 2 {
		nextRuns := make([]int, 0, len(runs)/2+2)
		nextRuns = append(nextRuns, 0)
		var thunks []func()
		for i := 0; i+2 < len(runs); i += 2 {
			lo, mid, hi := runs[i], runs[i+1], runs[i+2]
			nextRuns = append(nextRuns, hi)
			thunks = append(thunks, func() {
				mergePairRuns(tmp[lo:hi], cur[lo:mid], cur[mid:hi])
			})
		}
		if len(runs)%2 == 0 { // odd run count: copy the trailing run over
			lo, hi := runs[len(runs)-2], runs[len(runs)-1]
			nextRuns = append(nextRuns, hi)
			thunks = append(thunks, func() { copy(tmp[lo:hi], cur[lo:hi]) })
		}
		par.Do(thunks...)
		cur, tmp = tmp, cur
		runs = nextRuns
	}
	return cur
}

// mergePairRuns merges the two sorted runs a and b into dst
// (len(dst) == len(a)+len(b)), preferring a on ties.
func mergePairRuns(dst, a, b []entity.Pair) {
	i, j, k := 0, 0, 0
	for i < len(a) && j < len(b) {
		if pairLess(b[j], a[i]) {
			dst[k] = b[j]
			j++
		} else {
			dst[k] = a[i]
			i++
		}
		k++
	}
	k += copy(dst[k:], a[i:])
	copy(dst[k:], b[j:])
}

// sortBucketsConcurrently sorts every bucket canonically, one goroutine per
// non-trivial bucket.
func sortBucketsConcurrently(buckets [][]entity.Pair) {
	var thunks []func()
	for _, b := range buckets {
		if len(b) > 1 {
			b := b
			thunks = append(thunks, func() { sortPairs(b) })
		}
	}
	if len(thunks) == 0 {
		return
	}
	par.Do(thunks...)
}

func (g *Graph) wepParallel(workers int) []entity.Pair {
	// Pass 1: per-worker exact partial sums (no edge weight is ever
	// materialized). The exact sum is a property of the weight multiset, so
	// the resulting mean is bit-identical to the serial threshold for every
	// worker count.
	accs := make([]floatsum.Acc, workers)
	g.parallelRanges(workers, func(w *Graph, worker, lo, hi int) {
		acc := &accs[worker]
		w.forEachEdgeRange(lo, hi, func(_, _ entity.ID, wt float64) {
			acc.Add(wt)
		})
	})
	var total floatsum.Acc
	for i := range accs {
		total.Merge(&accs[i])
	}
	if total.Count() == 0 {
		return nil
	}
	mean := total.Mean()

	// Pass 2: retain in per-worker buckets over disjoint A ranges.
	buckets := make([][]entity.Pair, workers)
	g.parallelRanges(workers, func(w *Graph, worker, lo, hi int) {
		var local []entity.Pair
		w.forEachEdgeRange(lo, hi, func(i, j entity.ID, wt float64) {
			if wt >= mean {
				local = append(local, entity.MakePair(i, j))
			}
		})
		buckets[worker] = local
	})
	return assembleRangeBuckets(buckets)
}

func (g *Graph) cepParallel(workers int) []entity.Pair {
	k := g.CardinalityEdgeThreshold()
	if k == 0 {
		return nil
	}
	heaps := make([]*edgeHeap, workers)
	g.parallelRanges(workers, func(w *Graph, worker, lo, hi int) {
		h := newEdgeHeap(k)
		w.forEachEdgeRange(lo, hi, func(i, j entity.ID, wt float64) {
			h.offer(wt, i, j)
		})
		heaps[worker] = h
	})
	// Merge: the global top-K of the per-worker top-Ks.
	final := newEdgeHeap(k)
	for _, h := range heaps {
		if h == nil {
			continue
		}
		for _, e := range h.items {
			final.offer(e.w, e.i, e.j)
		}
	}
	out := make([]entity.Pair, 0, final.len())
	for _, e := range final.items {
		out = append(out, entity.MakePair(e.i, e.j))
	}
	sortPairs(out)
	return out
}

func (g *Graph) cnpParallel(workers int) []entity.Pair {
	k := g.CardinalityNodeThreshold()
	buckets := make([][]entity.Pair, workers)
	g.parallelRanges(workers, func(w *Graph, worker, lo, hi int) {
		h := newEdgeHeap(k)
		var local []entity.Pair
		w.forEachNodeRange(lo, hi, func(i entity.ID, neighbors []entity.ID, weights []float64) {
			h.reset()
			for n, j := range neighbors {
				h.offer(weights[n], i, j)
			}
			for _, e := range h.items {
				local = append(local, entity.MakePair(e.i, e.j))
			}
		})
		buckets[worker] = local
	})
	return assembleNodeBuckets(buckets)
}

func (g *Graph) wnpParallel(workers int) []entity.Pair {
	buckets := make([][]entity.Pair, workers)
	g.parallelRanges(workers, func(w *Graph, worker, lo, hi int) {
		var local []entity.Pair
		w.forEachNodeRange(lo, hi, func(i entity.ID, neighbors []entity.ID, weights []float64) {
			threshold := w.meanOf(weights)
			for n, j := range neighbors {
				if weights[n] >= threshold {
					local = append(local, entity.MakePair(i, j))
				}
			}
		})
		buckets[worker] = local
	})
	return assembleNodeBuckets(buckets)
}

// pairMark is one endpoint's vote for a pair: bit 1 when the smaller
// endpoint ranked the edge in its top-k, bit 2 when the larger one did.
type pairMark struct {
	p entity.Pair
	m uint8
}

// redefinedCNPParallel implements the Redefined (OR) and Reciprocal (AND)
// CNP variants with sharded mark accumulation instead of a global hash
// map: finder workers emit per-reducer mark lists partitioned by the
// pair's canonical A, and each reducer sorts its shard and merges mark
// runs in one pass. Reducer shards cover disjoint ascending A ranges, so
// their outputs concatenate into the canonical global order.
func (g *Graph) redefinedCNPParallel(reciprocal bool, workers int) []entity.Pair {
	k := g.CardinalityNodeThreshold()
	n := g.blocks.NumEntities
	reducers := workers
	marks := make([][][]pairMark, workers)
	g.parallelRanges(workers, func(w *Graph, worker, lo, hi int) {
		local := make([][]pairMark, reducers)
		h := newEdgeHeap(k)
		w.forEachNodeRange(lo, hi, func(i entity.ID, neighbors []entity.ID, weights []float64) {
			h.reset()
			for nn, j := range neighbors {
				h.offer(weights[nn], i, j)
			}
			for _, e := range h.items {
				p := entity.MakePair(e.i, e.j)
				bit := uint8(1)
				if e.i > e.j {
					bit = 2
				}
				r := int(uint64(p.A) * uint64(reducers) / uint64(n))
				local[r] = append(local[r], pairMark{p: p, m: bit})
			}
		})
		marks[worker] = local
	})

	outs := make([][]entity.Pair, reducers)
	par.Ranges(reducers, reducers, func(_, lo, hi int) {
		for r := lo; r < hi; r++ {
			outs[r] = reduceMarkShard(marks, r, reciprocal)
		}
	})
	total := 0
	for _, o := range outs {
		total += len(o)
	}
	out := make([]entity.Pair, 0, total)
	for _, o := range outs {
		out = append(out, o...)
	}
	return out
}

// reduceMarkShard gathers every worker's marks for reducer shard r, sorts
// them canonically and ORs each pair's bits in a single run scan.
func reduceMarkShard(marks [][][]pairMark, r int, reciprocal bool) []entity.Pair {
	total := 0
	for _, workerMarks := range marks {
		if workerMarks != nil {
			total += len(workerMarks[r])
		}
	}
	if total == 0 {
		return nil
	}
	shard := make([]pairMark, 0, total)
	for _, workerMarks := range marks {
		if workerMarks != nil {
			shard = append(shard, workerMarks[r]...)
		}
	}
	// Equal pairs may carry different bits; their relative order is
	// irrelevant because the run scan ORs them.
	slices.SortFunc(shard, func(a, b pairMark) int { return comparePairs(a.p, b.p) })
	var out []entity.Pair
	for i := 0; i < len(shard); {
		p := shard[i].p
		m := shard[i].m
		for i++; i < len(shard) && shard[i].p == p; i++ {
			m |= shard[i].m
		}
		if !reciprocal || m == 3 {
			out = append(out, p)
		}
	}
	return out
}

// wnpBucket is one worker's output of the single-pass Redefined/Reciprocal
// WNP: one group per scanned node i, in scan order (descending i), holding
// {A: i, B: j} ascending in j for every edge to a larger neighbor j that is
// retained or still undecided.
type wnpBucket struct {
	pairs []entity.Pair
	// pending lists the undecided entries of pairs: edges whose larger
	// endpoint lies in another worker's range, so its threshold is only
	// known after the barrier.
	pending []pendingEdge
}

// pendingEdge is the edge at pairs[at], of weight w, that already met (or,
// for Redefined WNP, failed) its smaller endpoint's threshold and is
// retained iff w also meets the larger endpoint's.
type pendingEdge struct {
	at int
	w  float64
}

// redefinedWNPParallel retains exactly what the two passes of Algorithm 5
// retain (see redefinedWNP) in one ScanCount pass, and emits it in
// canonical order without a global sort: every worker scans its ID range
// downwards and decides each edge at its smaller endpoint i, so its pairs
// all have A = i, the ranges are disjoint in A, and ordering the result
// takes a sort of each node's few retained neighbors plus one reversed
// copy of the buckets.
func (g *Graph) redefinedWNPParallel(reciprocal bool, workers int) []entity.Pair {
	buckets, thresholds := g.wnpBuckets(reciprocal, workers)
	total := 0
	for b := range buckets {
		total += len(buckets[b].pairs) - buckets[b].resolve(thresholds)
	}
	out := make([]entity.Pair, 0, total)
	for b := range buckets {
		out = buckets[b].appendAscending(out)
	}
	return out
}

// wnpBuckets runs the pass: per-worker buckets over ascending disjoint ID
// ranges, and every neighborhood's threshold for resolving their pending
// edges. For Clean-Clean ER every edge crosses Split, so the E2 side
// settles its thresholds first and, after a barrier, the E1 side decides
// all of its edges on the spot — nothing is left pending.
func (g *Graph) wnpBuckets(reciprocal bool, workers int) ([]wnpBucket, []float64) {
	n := g.blocks.NumEntities
	thresholds := make([]float64, n)
	buckets := make([]wnpBucket, workers)
	to, knownFrom := n, n
	if g.blocks.Task == entity.CleanClean {
		to, knownFrom = g.blocks.Split, g.blocks.Split
		g.parallelRangesIn(knownFrom, n, workers, func(w *Graph, _, lo, hi int) {
			w.forEachNodeRange(lo, hi, func(i entity.ID, _ []entity.ID, weights []float64) {
				thresholds[i] = w.meanOf(weights) // disjoint index ranges: no race
			})
		})
	}
	g.parallelRangesIn(0, to, workers, func(w *Graph, worker, lo, hi int) {
		buckets[worker] = w.wnpDecideRange(lo, hi, knownFrom, reciprocal, thresholds)
	})
	return buckets, thresholds
}

// wnpDecideRange scans the nodes of [lo, hi) downwards. At node i it
// stores the exact threshold θi and handles every edge to a larger
// neighbor j (edges to smaller ones are handled at j): when θj is known —
// j was scanned earlier by this worker (j < hi) or in an earlier phase
// (j ≥ knownFrom) — the edge is decided with the same >= tests as the
// edge-centric pass of Alg. 5; otherwise it is kept, and listed as pending
// if θj can still change its fate (Reciprocal: it met θi; Redefined: it
// failed θi). thresholds is written only at [lo, hi) and read only where
// known.
func (g *Graph) wnpDecideRange(lo, hi, knownFrom int, reciprocal bool, thresholds []float64) wnpBucket {
	var b wnpBucket
	sc := g.sc
	g.scanNodeRange(lo, hi, true, func(i entity.ID, neighbors []entity.ID, weights []float64) {
		ti := g.meanOf(weights)
		thresholds[i] = ti
		// Kept neighbors as j<<32|n: sorting orders the group by j and
		// keeps each edge's weight index n at hand.
		keys := sc.keys[:0]
		for n, j := range neighbors {
			if j < i {
				continue
			}
			okI, okJ := weights[n] >= ti, true // an unknown θj may yet be met
			if int(j) < hi || int(j) >= knownFrom {
				okJ = weights[n] >= thresholds[j]
			}
			if (reciprocal && okI && okJ) || (!reciprocal && (okI || okJ)) {
				keys = append(keys, uint64(j)<<32|uint64(n))
			}
		}
		slices.Sort(keys)
		sc.keys = keys
		pairs, pending := b.pairs, b.pending
		for _, k := range keys {
			j, w := entity.ID(k>>32), weights[uint32(k)]
			if int(j) >= hi && int(j) < knownFrom && (w >= ti) == reciprocal {
				pending = append(pending, pendingEdge{at: len(pairs), w: w})
			}
			pairs = append(pairs, entity.Pair{A: i, B: j})
		}
		b.pairs, b.pending = pairs, pending
	})
	return b
}

// resolve decides the pending edges now that every threshold is known,
// marks the ones that fail with B = -1 and returns how many it marked.
func (b *wnpBucket) resolve(thresholds []float64) int {
	dropped := 0
	for _, p := range b.pending {
		if e := &b.pairs[p.at]; !(p.w >= thresholds[e.B]) {
			e.B = -1
			dropped++
		}
	}
	return dropped
}

// appendAscending appends the bucket's surviving pairs in canonical order:
// the groups back to front (they were emitted in descending A), each
// group front to back.
func (b *wnpBucket) appendAscending(out []entity.Pair) []entity.Pair {
	for end := len(b.pairs); end > 0; {
		start := end - 1
		for a := b.pairs[start].A; start > 0 && b.pairs[start-1].A == a; {
			start--
		}
		for _, p := range b.pairs[start:end] {
			if p.B >= 0 {
				out = append(out, p)
			}
		}
		end = start
	}
	return out
}
