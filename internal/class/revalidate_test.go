package class

import (
	"context"
	"fmt"
	"sync/atomic"
	"testing"

	"repro/internal/loid"
)

// BenchmarkGetBinding drives one class object's GetBinding (§5.2.2's
// class fan-in point, E22) from parallel senders over a population of
// active instances. reval/s is the revalidation rate the class object
// serves; E22's offered load, 50 000 calls/s over 8 classes, asks at
// most 6 250 of it per class even if every call revalidated. A cost
// that grows with the population shows as an objects=10000 row slower
// than its objects=100 row; CI gates that ratio.
func BenchmarkGetBinding(b *testing.B) {
	for _, n := range []int{100, 10000} {
		b.Run(fmt.Sprintf("objects=%d", n), func(b *testing.B) {
			fx := newFixture(b)
			ctx := context.Background()
			made, err := CreateSet.Call(ctx, fx.root.Ref, NewSet{Count: uint64(n)})
			if err != nil {
				b.Fatal(err)
			}
			ls := make([]loid.LOID, n)
			for i, m := range made {
				ls[i] = m.LOID
			}
			var next atomic.Uint64
			b.ReportAllocs()
			b.ResetTimer()
			b.RunParallel(func(pb *testing.PB) {
				for pb.Next() {
					if _, err := GetBinding.Call(ctx, fx.root.Ref, ls[next.Add(1)%uint64(n)]); err != nil {
						b.Error(err)
						return
					}
				}
			})
			nsPerOp := float64(b.Elapsed().Nanoseconds()) / float64(b.N)
			b.ReportMetric(1e9/nsPerOp, "reval/s")
		})
	}
}
