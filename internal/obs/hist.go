package obs

import "math/bits"

// HistBuckets is the number of log2 buckets a Histogram carries: bucket 0
// holds the value 0 and bucket b (1..64) holds values v with bits.Len64(v)
// == b, i.e. the half-open power-of-two band [2^(b-1), 2^b). Every uint64
// has a bucket, so recording can never saturate or drop a sample.
const HistBuckets = 65

// Histogram is a log2-bucketed distribution of uint64 samples (simulated
// cycle durations). It is a plain accumulator — no host state, no
// randomness — and merging is element-wise addition plus min/max folding,
// so merging any permutation of the same sample sets yields an identical
// histogram. That order-independence is what lets the sharded harness merge
// per-world histograms in any order and still export identical bytes.
//
// Percentile contract: Percentile(p) returns the recorded maximum of the
// bucket containing the nearest-rank sample — an upper bound at log2
// resolution, exact whenever that bucket holds a single distinct value
// (common here: span durations come from a discrete cost model). The bound
// is deliberately biased upward, the safe direction for tail latency.
type Histogram struct {
	counts [HistBuckets]uint64
	// mins/maxs track the smallest and largest sample recorded per bucket,
	// tightening the log2 bands to the observed values. Valid only where
	// counts[b] > 0.
	mins [HistBuckets]uint64
	maxs [HistBuckets]uint64
	sum  uint64
	n    uint64
}

// histBucket maps a sample to its bucket index.
func histBucket(v uint64) int { return bits.Len64(v) }

// Record adds one sample.
func (h *Histogram) Record(v uint64) { h.RecordN(v, 1) }

// RecordN adds n identical samples.
func (h *Histogram) RecordN(v, n uint64) {
	if n == 0 {
		return
	}
	b := histBucket(v)
	if h.counts[b] == 0 || v < h.mins[b] {
		h.mins[b] = v
	}
	if h.counts[b] == 0 || v > h.maxs[b] {
		h.maxs[b] = v
	}
	h.counts[b] += n
	h.sum += v * n
	h.n += n
}

// Count reports the number of recorded samples.
func (h *Histogram) Count() uint64 { return h.n }

// Sum reports the total of all recorded samples.
func (h *Histogram) Sum() uint64 { return h.sum }

// Min reports the smallest recorded sample (0 on an empty histogram).
func (h *Histogram) Min() uint64 {
	for b := 0; b < HistBuckets; b++ {
		if h.counts[b] > 0 {
			return h.mins[b]
		}
	}
	return 0
}

// Max reports the largest recorded sample (0 on an empty histogram).
func (h *Histogram) Max() uint64 {
	for b := HistBuckets - 1; b >= 0; b-- {
		if h.counts[b] > 0 {
			return h.maxs[b]
		}
	}
	return 0
}

// Merge adds every bucket of other into h. Addition commutes and min/max
// folding is associative and commutative, so any merge order over the same
// multiset of samples produces an identical histogram.
func (h *Histogram) Merge(other *Histogram) {
	if other == nil {
		return
	}
	for b := 0; b < HistBuckets; b++ {
		if other.counts[b] == 0 {
			continue
		}
		if h.counts[b] == 0 || other.mins[b] < h.mins[b] {
			h.mins[b] = other.mins[b]
		}
		if h.counts[b] == 0 || other.maxs[b] > h.maxs[b] {
			h.maxs[b] = other.maxs[b]
		}
		h.counts[b] += other.counts[b]
	}
	h.sum += other.sum
	h.n += other.n
}

// Percentile returns the p-th percentile (0 < p <= 100) by exact
// nearest-rank counting: the rank is ceil(p/100 * Count), and the result is
// the recorded maximum of the bucket holding the rank-th smallest sample
// (see the type comment for the exactness contract). p <= 0 returns Min;
// an empty histogram returns 0.
func (h *Histogram) Percentile(p float64) uint64 {
	if h.n == 0 {
		return 0
	}
	if p <= 0 {
		return h.Min()
	}
	if p > 100 {
		p = 100
	}
	// ceil(p*n/100) computed in floats then clamped: n is a sample count
	// (well under 2^53), so the arithmetic is exact enough for ranks, and
	// clamping removes any boundary wobble at p=100.
	rank := uint64(p * float64(h.n) / 100)
	if float64(rank)*100 < p*float64(h.n) {
		rank++
	}
	if rank < 1 {
		rank = 1
	}
	if rank > h.n {
		rank = h.n
	}
	var cum uint64
	for b := 0; b < HistBuckets; b++ {
		cum += h.counts[b]
		if cum >= rank {
			return h.maxs[b]
		}
	}
	return h.Max() // unreachable: cum == n >= rank after the last bucket
}

// Mean reports the arithmetic mean of recorded samples (0 when empty).
func (h *Histogram) Mean() float64 {
	if h.n == 0 {
		return 0
	}
	return float64(h.sum) / float64(h.n)
}

// HistBucketJSON is one non-empty bucket of a histogram export: the
// observed [Min, Max] band inside the bucket's log2 range and its count.
type HistBucketJSON struct {
	Min   uint64 `json:"min"`
	Max   uint64 `json:"max"`
	Count uint64 `json:"count"`
}

// HistogramJSON is the machine-readable form of one histogram, used by the
// run report and the E13 table attachment. Buckets appear in
// ascending value order; percentiles follow the Histogram contract.
type HistogramJSON struct {
	Count   uint64           `json:"count"`
	Sum     uint64           `json:"sum"`
	Min     uint64           `json:"min"`
	Max     uint64           `json:"max"`
	P50     uint64           `json:"p50"`
	P90     uint64           `json:"p90"`
	P99     uint64           `json:"p99"`
	Buckets []HistBucketJSON `json:"buckets,omitempty"`
}

// BuildHistogramJSON renders h in deterministic (ascending bucket) order.
func BuildHistogramJSON(h *Histogram) HistogramJSON {
	out := HistogramJSON{
		Count: h.Count(),
		Sum:   h.Sum(),
		Min:   h.Min(),
		Max:   h.Max(),
		P50:   h.Percentile(50),
		P90:   h.Percentile(90),
		P99:   h.Percentile(99),
	}
	for b := 0; b < HistBuckets; b++ {
		if h.counts[b] > 0 {
			out.Buckets = append(out.Buckets, HistBucketJSON{Min: h.mins[b], Max: h.maxs[b], Count: h.counts[b]})
		}
	}
	return out
}
