package core

import (
	"fmt"
	"slices"

	"metablocking/internal/arena"
	"metablocking/internal/entity"
	"metablocking/internal/floatsum"
	"metablocking/internal/obs"
	"metablocking/internal/par"
)

// shard returns a Graph view sharing the immutable state (blocks, Entity
// Index, per-block cardinalities, degrees) but with private ScanCount
// scratch, so multiple shards can traverse concurrently. Scratch comes
// from the graph's pool; parallelRangesIn recycles it when the shard's work
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
	g.scanNodeRange(lo, hi, false, false, fn)
}

// scanNodeRange visits the nodes of [lo, hi) in ascending or descending ID
// order, enumerating each neighborhood with scanNeighborhood and weighing
// it with fillWeights — from Alg. 3's ScanCount statistic or, on a graph
// with OriginalWeighting, from Alg. 2's per-pair intersections (the cost
// Table 3 measures). With upper set it drops the neighbors smaller than the
// node before they are weighed and counted, for the edge-centric passes.
func (g *Graph) scanNodeRange(lo, hi int, descending, upper bool, fn func(i entity.ID, neighbors []entity.ID, weights []float64)) {
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
		if upper {
			neighbors = slices.DeleteFunc(neighbors, func(j entity.ID) bool { return j < i })
		}
		if len(neighbors) == 0 {
			continue
		}
		if g.OriginalWeighting {
			for _, j := range neighbors {
				g.sc.cells[j].common = g.intersectAll(i, j)
			}
		}
		weighed += int64(len(neighbors))
		fn(i, neighbors, g.fillWeights(i, neighbors))
	}
	tick.flush()
	g.obs.Counter(obs.CtrEdgesWeighted).Add(weighed)
	if !upper { // only a whole neighborhood has a threshold
		g.obs.Counter(obs.CtrExactMeanFallbacks).Add(g.sc.fallbacks)
		g.sc.fallbacks = 0
	}
}

// forEachEdgeRange is ForEachEdge restricted to edges whose emitting
// endpoint (the smaller ID for Dirty ER, the E1 member for Clean-Clean ER)
// lies in [lo, hi). Every emitted pair's canonical A is the emitting
// endpoint, so per-range result buckets cover disjoint ascending A ranges.
// On a graph with OriginalWeighting it runs Alg. 2's comparison loop over
// the whole graph, which is only ever asked for on one worker.
func (g *Graph) forEachEdgeRange(lo, hi int, fn func(i, j entity.ID, w float64)) {
	if g.OriginalWeighting {
		g.ForEachEdgeOriginal(fn)
		return
	}
	g.scanNodeRange(lo, min(hi, g.emitEnd()), false, true, func(i entity.ID, neighbors []entity.ID, weights []float64) {
		for n, j := range neighbors {
			fn(i, j, weights[n])
		}
	})
}

// meanOf is the exact neighborhood mean (see internal/floatsum), computed
// with this graph's persistent accumulator so the partials buffer is
// reused across every node of a traversal instead of escaping once per
// call.
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

// parallelRangesIn cuts the node IDs of [from, to) into one contiguous range
// per worker, of near-equal scan cost rather than equal length (see
// costPrefix), and runs fn(worker, lo, hi) concurrently on shard copies of
// the graph. workers must already be resolved with par.Resolve; one worker
// runs fn on g itself. A range comes out empty when its neighbor holds a node
// dearer than a whole share; it starts no goroutine, so fn may index
// per-worker buckets with its worker argument directly. The fan-out inherits
// par's panic isolation: a panic in one range re-raises on the caller as a
// *par.PanicError once the others have drained, and every range's scratch is
// back in the pool by then.
func (g *Graph) parallelRangesIn(from, to, workers int, fn func(w *Graph, worker, lo, hi int)) {
	if workers <= 1 {
		fn(g, 0, from, to)
		return
	}
	par.RangesAt(g.costBounds(from, to, workers), func(worker, lo, hi int) {
		s := g.shard()
		defer g.scratchPool.Put(s.sc)
		fn(s, worker, lo, hi)
	})
}

// costBounds cuts the node IDs of [from, to) into parts contiguous ranges of
// near-equal scan cost and returns their parts+1 ascending bounds.
func (g *Graph) costBounds(from, to, parts int) []int {
	return par.BalancedBounds(g.costPrefix(), from, to, parts)
}

// costPrefix returns the prefix sums of the per-node cost of a ScanCount
// pass, computed on first use: prefix[i] is the cost of the nodes [0, i).
// A node's cost is the loop trips its scan makes — for every block it is
// in, the members scanNeighborhood walks plus the members with a larger ID,
// whose edges the node weighs (forEachEdgeRange) or decides (decideRange).
// The second term is what makes the verbose half of an ID-sorted collection
// and the low end of a large block cost what they do; block member lists
// are ascending, so it is the member's distance from the end of the list.
func (g *Graph) costPrefix() []int64 {
	if g.cost != nil {
		return g.cost
	}
	prefix := make([]int64, g.blocks.NumEntities+1)
	clean := g.blocks.Task == entity.CleanClean
	for b := range g.blocks.Blocks {
		blk := &g.blocks.Blocks[b]
		if clean {
			// Every E2 member has the larger ID.
			for _, i := range blk.E1 {
				prefix[i+1] += 2 * int64(len(blk.E2))
			}
			for _, j := range blk.E2 {
				prefix[j+1] += int64(len(blk.E1))
			}
			continue
		}
		for k, i := range blk.E1 {
			prefix[i+1] += int64(2*len(blk.E1) - 1 - k)
		}
	}
	for i := 1; i < len(prefix); i++ {
		prefix[i] += prefix[i-1]
	}
	g.cost = prefix
	return prefix
}

// emitEnd bounds the IDs forEachEdgeRange emits from: every node for Dirty
// ER, the E1 side for Clean-Clean ER.
func (g *Graph) emitEnd() int {
	if g.blocks.Task == entity.CleanClean {
		return g.blocks.Split
	}
	return g.blocks.NumEntities
}

// parallelEdgeRanges fans an edge-centric pass out over the emitting IDs, so
// that for Clean-Clean ER no worker is handed the E2 side, which emits
// nothing.
func (g *Graph) parallelEdgeRanges(workers int, fn func(w *Graph, worker, lo, hi int)) {
	g.parallelRangesIn(0, g.emitEnd(), workers, fn)
}

// PruneParallel applies the pruning algorithm using the given number of
// workers (resolved by par.Resolve: 0 or 1 = one, negative = GOMAXPROCS) and
// returns the retained comparisons in canonical (A, B) order, the same slice
// for every worker count. Node-centric sharding by ID range keeps every
// neighborhood on one worker, so the per-node criteria do not depend on the
// partition. The original CNP/WNP's redundant comparisons come out adjacent.
// A graph with OriginalWeighting prunes on one worker.
func (g *Graph) PruneParallel(a Algorithm, workers int) []entity.Pair {
	return g.prune(a, workers).collect()
}

// answer is a pruning result before it leaves the graph: CEP's and WEP's
// canonically sorted slice, or the node-centric pass's resolved buckets.
type answer struct {
	workers int
	sorted  []entity.Pair
	buckets []nodeBucket // nil for CEP and WEP
	total   int          // surviving pairs in buckets
}

// prune runs the algorithm on the resolved number of workers.
func (g *Graph) prune(a Algorithm, workers int) answer {
	if g.OriginalWeighting {
		workers = 1
	}
	workers = par.Resolve(workers, g.blocks.NumEntities)
	g.obs.Gauge(obs.GaugeWorkersPrune).Set(int64(workers))
	ans := answer{workers: workers}
	switch a {
	case CEP:
		ans.sorted = g.cepParallel(workers)
	case WEP:
		ans.sorted = g.wepParallel(workers)
	case CNP, WNP, RedefinedCNP, ReciprocalCNP, RedefinedWNP, ReciprocalWNP:
		ans.buckets, ans.total = g.nodeCentricParallel(a, workers)
	default:
		panic(fmt.Sprintf("core: unknown pruning algorithm %d", int(a)))
	}
	return ans
}

// collect returns the answer as one slice in canonical order.
func (ans answer) collect() []entity.Pair {
	if ans.buckets == nil {
		return ans.sorted
	}
	out := make([]entity.Pair, 0, ans.total)
	for b := range ans.buckets {
		out = ans.buckets[b].appendAscending(out)
	}
	return out
}

// emitChunk is the pair count after which emit closes a chunk at the next
// boundary between two A groups.
const emitChunk = 1 << 14

// emitPairs recycles the node-centric chunks' buffers across chunks and
// calls.
var emitPairs arena.Pool[entity.Pair]

// emit hands the answer to sink in ordered chunks and returns the number of
// pairs it handed over. The chunks concatenate to collect's slice, and a
// chunk never splits the pairs of one A, so CNP/WNP's redundant copies of a
// pair share a chunk. A sorted answer is cut into subslices of itself; a
// bucket into views of whole A groups that the workers walk in ascending
// order into pooled buffers. Empty chunks are not handed over. sink runs on
// the workers, the commits it returns on the caller's goroutine in chunk
// order (par.Ordered); a chunk stays valid until its commit returns. emit
// returns the first commit error, a panic in sink as *par.PanicError, or
// o.Err() when the run was canceled before the first chunk.
func (ans answer) emit(o *obs.Observer, sink func([]entity.Pair) func() error) (int, error) {
	if o.Canceled() {
		return 0, o.Err()
	}
	if ans.buckets == nil {
		pairs := ans.sorted
		var cuts []int
		for lo := 0; lo < len(pairs); {
			cuts = append(cuts, lo)
			hi := min(lo+emitChunk, len(pairs))
			for hi < len(pairs) && pairs[hi].A == pairs[hi-1].A {
				hi++
			}
			lo = hi
		}
		cuts = append(cuts, len(pairs))
		return len(pairs), par.Ordered(ans.workers, len(cuts)-1, func(k int) func() error {
			return sink(pairs[cuts[k]:cuts[k+1]])
		})
	}
	// A bucket holds its groups in descending A, so its chunks are cut from
	// the back, each start moved down to the first slot of its group.
	var chunks []nodeBucket
	for b := range ans.buckets {
		pairs := ans.buckets[b].pairs
		for end := len(pairs); end > 0; {
			start := max(end-emitChunk, 0)
			for start > 0 && pairs[start-1].A == pairs[start].A {
				start--
			}
			chunks = append(chunks, nodeBucket{pairs: pairs[start:end]})
			end = start
		}
	}
	return ans.total, par.Ordered(ans.workers, len(chunks), func(k int) func() error {
		buf := emitPairs.Get()
		buf.S = chunks[k].appendAscending(buf.S)
		var commit func() error
		if len(buf.S) > 0 {
			commit = sink(buf.S)
		}
		return emitPairs.PutAfter(buf, commit)
	})
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
// ascending emitting-endpoint ranges (forEachEdgeRange) into one
// canonically ordered slice: each bucket is sorted concurrently,
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
	// the resulting mean is bit-identical for every worker count.
	accs := make([]floatsum.Acc, workers)
	g.parallelEdgeRanges(workers, func(w *Graph, worker, lo, hi int) {
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
	g.parallelEdgeRanges(workers, func(w *Graph, worker, lo, hi int) {
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
	g.parallelEdgeRanges(workers, func(w *Graph, worker, lo, hi int) {
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

// nodeBucket is the output of the node-centric pass over one ID range: one
// group per scanned node i, in scan order (descending i), holding {A: i, B: j}
// ascending in j — one slot per comparison of every edge to a larger
// neighbor j that is retained or still undecided.
type nodeBucket struct {
	pairs []entity.Pair
	// pending lists the undecided slots of pairs: edges whose larger
	// endpoint lies in a range that runs concurrently, so its threshold is
	// only known after the barrier.
	pending []pendingEdge
}

// pendingEdge is the slot pairs[at] of an edge of weight w: the comparison
// it yields iff the larger endpoint's threshold admits the edge too.
type pendingEdge struct {
	at int
	w  float64
}

// nodeCentricParallel is all six node-centric algorithms in one node-centric
// pass, instead of the node pass plus edge pass of Algs. 4/5. Edge weights
// are bit-identical from either endpoint (fillWeights orders its factors by
// the endpoints, not by the side it weighs from), so an edge is decided once
// both endpoints' thresholds are known. It returns the resolved buckets and
// how many pairs survive in them, which come out in canonical order without
// a global sort: every range of IDs is scanned downwards and decides each
// edge at its smaller endpoint i, so its pairs all have A = i, the ranges
// are disjoint in A, and ordering the result takes a sort of each node's few
// retained neighbors plus one reversed walk of the buckets
// (appendAscending), into one slice or chunk by chunk.
func (g *Graph) nodeCentricParallel(a Algorithm, workers int) ([]nodeBucket, int) {
	buckets, thresholds := g.nodeBuckets(a, workers)
	total := 0
	for b := range buckets {
		total += len(buckets[b].pairs) - buckets[b].resolve(thresholds)
	}
	return buckets, total
}

// nodeBands is the number of cost-equal bands the parallel node-centric pass
// cuts the ID space into. An edge between two ranges that run concurrently
// waits on the pending list for the barrier, and cost-balanced ranges put
// most edges of an ID-sorted collection there; in a band an edge crosses
// ranges only if both endpoints lie in that band, so the pending list — and
// with it the peak heap — shrinks as the band count grows (Reciprocal WNP on
// the repository benchmark's batch_meta input: 664 630 slots in one band,
// 94 028 in 16).
const nodeBands = 16

// nodeBuckets runs the pass: buckets over ascending disjoint ID ranges, one
// per (band, worker), and every neighborhood's threshold for resolving their
// pending slots. One worker scans one band, the whole ID space.
func (g *Graph) nodeBuckets(a Algorithm, workers int) ([]nodeBucket, []nodeThreshold) {
	bands := nodeBands
	if workers <= 1 {
		bands = 1
	}
	return g.nodeBucketsIn(a, workers, bands)
}

// nodeBucketsIn is nodeBuckets with the given number of bands. The bands run
// top-down with a barrier between them, each cut into one cost-equal range
// per worker: below a band every threshold above it is settled, so only the
// edges between the ranges of one band are left pending. For Clean-Clean ER
// every edge crosses Split, so the E2 side settles its thresholds first and
// the E1 side decides all of its edges on the spot — nothing is pending at
// all. A canceled run stops at the next barrier.
func (g *Graph) nodeBucketsIn(a Algorithm, workers, bands int) ([]nodeBucket, []nodeThreshold) {
	n := g.blocks.NumEntities
	thresholds := make([]nodeThreshold, n)
	to := g.emitEnd()
	if to < n { // Clean-Clean ER: the E2 side
		g.parallelRangesIn(to, n, workers, func(w *Graph, _, lo, hi int) {
			topK := w.newTopK(a)
			w.forEachNodeRange(lo, hi, func(i entity.ID, neighbors []entity.ID, weights []float64) {
				thresholds[i] = w.thresholdOf(topK, i, neighbors, weights) // disjoint index ranges: no race
			})
		})
	}
	buckets := make([]nodeBucket, bands*workers)
	cuts := []int{0, to}
	if bands > 1 {
		cuts = g.costBounds(0, to, bands)
	}
	for b := bands - 1; b >= 0 && !g.obs.Canceled(); b-- {
		lo, hi := cuts[b], cuts[b+1]
		g.parallelRangesIn(lo, hi, workers, func(w *Graph, worker, rlo, rhi int) {
			buckets[b*workers+worker] = w.decideRange(a, rlo, rhi, hi, thresholds)
		})
	}
	return buckets, thresholds
}

// decideRange scans the nodes of [lo, hi) downwards. At node i it stores
// the threshold θi and handles every edge to a larger neighbor j (edges to
// smaller ones are handled at j). When θj is known — j was scanned earlier
// in this range (j < hi) or in an earlier band or phase (j ≥ knownFrom) —
// the edge gets its copies(okI, okJ) slots at once. Otherwise it gets the
// copies(okI, false) slots no θj can take away, plus one pending slot if a
// θj that admits it would add one: for the Reciprocal variants that is an
// edge that met θi, for the Redefined ones an edge that failed it, for the
// originals every edge. thresholds is written only at [lo, hi) and read
// only where known.
func (g *Graph) decideRange(a Algorithm, lo, hi, knownFrom int, thresholds []nodeThreshold) nodeBucket {
	var b nodeBucket
	sc := g.sc
	topK := g.newTopK(a)
	g.scanNodeRange(lo, hi, true, false, func(i entity.ID, neighbors []entity.ID, weights []float64) {
		ti := g.thresholdOf(topK, i, neighbors, weights)
		thresholds[i] = ti
		// One key per slot, j<<32|n<<1|pending: sorting orders the group by
		// j, keeps each edge's weight index n at hand and puts an edge's
		// pending slot after its settled one.
		keys := sc.keys[:0]
		for n, j := range neighbors {
			if j < i {
				continue
			}
			w, key := weights[n], uint64(j)<<32|uint64(n)<<1
			okI := ti.admits(w, j)
			if int(j) < hi || int(j) >= knownFrom {
				for c := a.copies(okI, thresholds[j].admits(w, i)); c > 0; c-- {
					keys = append(keys, key)
				}
				continue
			}
			settled := a.copies(okI, false)
			if settled > 0 {
				keys = append(keys, key)
			}
			if a.copies(okI, true) > settled {
				keys = append(keys, key|1)
			}
		}
		slices.Sort(keys)
		sc.keys = keys
		pairs, pending := b.pairs, b.pending
		for _, k := range keys {
			if k&1 != 0 {
				pending = append(pending, pendingEdge{at: len(pairs), w: weights[uint32(k)>>1]})
			}
			pairs = append(pairs, entity.Pair{A: i, B: entity.ID(k >> 32)})
		}
		b.pairs, b.pending = pairs, pending
	})
	return b
}

// resolve decides the pending slots now that every threshold is known,
// marks the ones that fail with B = -1 and returns how many it marked.
func (b *nodeBucket) resolve(thresholds []nodeThreshold) int {
	dropped := 0
	for _, p := range b.pending {
		if e := &b.pairs[p.at]; !thresholds[e.B].admits(p.w, e.A) {
			e.B = -1
			dropped++
		}
	}
	return dropped
}

// appendAscending appends the bucket's surviving pairs in canonical order:
// the groups back to front (they were emitted in descending A), each
// group front to back. It is the one walk of both collect and emit, which
// applies it to views of whole groups.
func (b *nodeBucket) appendAscending(out []entity.Pair) []entity.Pair {
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
