package main

import "runtime/metrics"

// memSampler reads the runtime's heap counters on a fixed operation
// stride. It never forces a collection: /gc/heap/live:bytes is the heap
// the last completed GC cycle marked live, so the peak it reports repeats
// across runs and sampling does not perturb the time metrics (unlike
// runtime.ReadMemStats, which stops the world, or HeapAlloc, which also
// counts garbage not yet swept).
type memSampler struct {
	stride  int
	n       int
	samples []metrics.Sample

	peakLive   uint64
	allocBase  uint64
	objectBase uint64
}

const (
	liveBytesMetric    = "/gc/heap/live:bytes"
	allocBytesMetric   = "/gc/heap/allocs:bytes"
	allocObjectsMetric = "/gc/heap/allocs:objects"
)

// newMemSampler takes the allocation baseline; stride is the number of
// operations between heap samples.
func newMemSampler(stride int) *memSampler {
	m := &memSampler{
		stride: stride,
		samples: []metrics.Sample{
			{Name: liveBytesMetric},
			{Name: allocBytesMetric},
			{Name: allocObjectsMetric},
		},
	}
	m.read()
	m.allocBase = m.samples[1].Value.Uint64()
	m.objectBase = m.samples[2].Value.Uint64()
	return m
}

func (m *memSampler) read() {
	metrics.Read(m.samples)
	if live := m.samples[0].Value.Uint64(); live > m.peakLive {
		m.peakLive = live
	}
}

// op counts one operation and samples the heap every stride operations.
func (m *memSampler) op() {
	m.n++
	if m.n%m.stride == 0 {
		m.read()
	}
}

// finish takes the closing sample and returns the peak live heap and the
// bytes and objects allocated since the sampler was created.
func (m *memSampler) finish() (peakLive, allocBytes, allocObjects uint64) {
	m.read()
	return m.peakLive, m.samples[1].Value.Uint64() - m.allocBase, m.samples[2].Value.Uint64() - m.objectBase
}
