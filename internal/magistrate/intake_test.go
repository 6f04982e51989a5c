package magistrate

import (
	"context"
	"fmt"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/host"
	"repro/internal/loid"
	"repro/internal/metrics"
	"repro/internal/obs"
)

// heartbeatEvery is the host heartbeat cadence E22 states its intake
// knee against.
const heartbeatEvery = 250 * time.Millisecond

// fullTelemetry is the heaviest report a host sends: the first delta of
// a registry holding 20 counters and 6 histograms, every one of them
// changed since nothing was shipped.
func fullTelemetry() []byte {
	reg := metrics.NewRegistry()
	for i := 0; i < 20; i++ {
		reg.Counter(fmt.Sprintf("host/counter%02d", i)).Add(uint64(i + 1))
	}
	for i := 0; i < 6; i++ {
		h := reg.Histogram(fmt.Sprintf("host/hist%d", i))
		for j := 1; j <= 8; j++ {
			h.Observe(time.Duration(j*(i+1)) * time.Microsecond)
		}
	}
	return obs.NewTelemetry(reg, nil).Report()
}

// BenchmarkReportLoad drives one Magistrate's heartbeat intake (§5's
// per-jurisdiction fan-in point, E22) from parallel senders that cycle
// over a population of host LOIDs, each of which has reported once
// before the clock starts. hosts@250ms is the population whose
// heartbeats at a 250 ms cadence would fill the measured intake: the
// knee. A per-report cost that grows with the population shows as a
// hosts=10000 row slower than its hosts=100 row; CI gates that ratio.
func BenchmarkReportLoad(b *testing.B) {
	full := fullTelemetry()
	cases := []struct {
		name      string
		plane     bool
		telemetry []byte
	}{
		{"plane=off", false, nil},
		{"plane=on", true, nil},
		{"telemetry", true, full},
	}
	for _, c := range cases {
		for _, n := range []int{100, 10000} {
			b.Run(fmt.Sprintf("%s/hosts=%d", c.name, n), func(b *testing.B) {
				fx := newFixture(b, 0)
				if c.plane {
					fx.mag.SetPlane(obs.NewPlane(obs.Config{Host: "mag"}))
				}
				ctx := context.Background()
				ld := host.Load{Residents: 3, DispatchRate: 100}
				hosts := make([]loid.LOID, n)
				for i := range hosts {
					hosts[i] = loid.NewNoKey(loid.ClassIDLegionHost, uint64(i+1))
					if _, err := host.ReportLoad.Call(ctx, fx.client.Ref, hosts[i], ld, c.telemetry); err != nil {
						b.Fatal(err)
					}
				}
				var next atomic.Uint64
				b.ReportAllocs()
				b.ResetTimer()
				b.RunParallel(func(pb *testing.PB) {
					for pb.Next() {
						h := hosts[next.Add(1)%uint64(n)]
						if _, err := host.ReportLoad.Call(ctx, fx.client.Ref, h, ld, c.telemetry); err != nil {
							b.Error(err)
							return
						}
					}
				})
				nsPerOp := float64(b.Elapsed().Nanoseconds()) / float64(b.N)
				b.ReportMetric(float64(heartbeatEvery.Nanoseconds())/nsPerOp, "hosts@250ms")
			})
		}
	}
}
