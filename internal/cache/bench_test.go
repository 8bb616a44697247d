package cache

import "testing"

// benchConfig is an R8000-like 4-way L2 at reduced capacity, the shape the
// experiments hammer hardest.
func benchConfig(classify bool) Config {
	return Config{Name: "L2", Size: 1 << 17, LineSize: 128, Assoc: 4, Classify: classify}
}

// benchAddrs mixes a sequential sweep (the dense kernels' common case)
// with a strided conflict pattern, sized to overflow the cache so hits,
// misses, and evictions all stay on the profile.
func benchAddrs(n int) []uint64 {
	addrs := make([]uint64, n)
	for i := range addrs {
		if i%8 == 7 {
			addrs[i] = uint64(i) * 4096 // strided: conflict pressure
		} else {
			addrs[i] = uint64(i) * 8 // sequential sweep
		}
	}
	return addrs
}

// BenchmarkCacheAccess measures the single-access hot path of the
// simulator, split by direction and classification, since the batched
// reference loop is a tight range over calls to Access.
func BenchmarkCacheAccess(b *testing.B) {
	addrs := benchAddrs(1 << 16)
	for _, bc := range []struct {
		name     string
		classify bool
		write    bool
	}{
		{"read", false, false},
		{"write", false, true},
		{"read-classified", true, false},
	} {
		b.Run(bc.name, func(b *testing.B) {
			c := MustNew(benchConfig(bc.classify))
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				c.Access(addrs[i&(len(addrs)-1)], bc.write)
			}
		})
	}
}
