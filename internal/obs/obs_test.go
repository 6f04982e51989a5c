package obs

import (
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/metrics"
	"repro/internal/trace"
)

func TestRecorderBasics(t *testing.T) {
	r := NewRecorder("h1")
	r.Record(KindMigrate, "L256.1", "prepared", 42)
	r.Record(KindSlowCall, "obj/L256.1", "Work", 7)
	evs := r.Events()
	if len(evs) != 2 {
		t.Fatalf("want 2 events, got %d", len(evs))
	}
	if evs[0].Seq != 1 || evs[0].Kind != KindMigrate || evs[0].Host != "h1" || evs[0].TraceID != 42 {
		t.Fatalf("bad first event: %+v", evs[0])
	}
	if s := evs[1].String(); !strings.Contains(s, "slowcall") || !strings.Contains(s, "Work") {
		t.Fatalf("String() missing fields: %s", s)
	}
	if got := r.EventsSince(1); len(got) != 1 || got[0].Seq != 2 {
		t.Fatalf("EventsSince(1): %+v", got)
	}
}

func TestRecorderWrapKeepsNewest(t *testing.T) {
	r := &Recorder{host: "h1", ring: trace.NewRing[Event](16)}
	for i := 0; i < 100; i++ {
		r.Record(KindForward, "", "", 0)
	}
	evs := r.Events()
	if len(evs) != 16 {
		t.Fatalf("want ring capacity 16, got %d", len(evs))
	}
	if evs[len(evs)-1].Seq != 100 {
		t.Fatalf("newest seq = %d, want 100", evs[len(evs)-1].Seq)
	}
	if r.Seq() != 100 || r.ring.Overwritten() != 84 {
		t.Fatalf("seq %d overwritten %d, want 100 and 84", r.Seq(), r.ring.Overwritten())
	}
	for i := 1; i < len(evs); i++ {
		if evs[i].Seq <= evs[i-1].Seq {
			t.Fatalf("events not seq-sorted: %d then %d", evs[i-1].Seq, evs[i].Seq)
		}
	}
}

func TestRecorderNilSafe(t *testing.T) {
	var r *Recorder
	r.Record(KindPark, "x", "y", 0) // must not panic
	if r.Events() != nil || r.Seq() != 0 {
		t.Fatal("nil recorder should be empty")
	}
}

// TestRecorderConcurrent hammers Record from many goroutines while a
// reader drains Events — the lock-free ring must stay coherent (run
// with -race).
func TestRecorderConcurrent(t *testing.T) {
	r := &Recorder{host: "h1", ring: trace.NewRing[Event](64)}
	var wg sync.WaitGroup
	stop := make(chan struct{})
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
				evs := r.Events()
				for i := 1; i < len(evs); i++ {
					if evs[i].Seq <= evs[i-1].Seq {
						t.Errorf("unsorted read: %d then %d", evs[i-1].Seq, evs[i].Seq)
						return
					}
				}
			}
		}
	}()
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 500; i++ {
				r.Record(KindBreaker, "e", "open", uint64(i))
			}
		}()
	}
	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	time.Sleep(10 * time.Millisecond)
	close(stop)
	<-done
	if r.Seq() != 8*500 {
		t.Fatalf("lost records: seq=%d want %d", r.Seq(), 8*500)
	}
}

func TestNodeObserverRecordsMethodAndSlowCall(t *testing.T) {
	reg := metrics.NewRegistry()
	rec := NewRecorder("h1")
	ob := NewNodeObserver(reg, rec)
	ob.ServeDone("obj/L256.1", "Work", 2*time.Millisecond, 99)
	ob.ServeDone("obj/L256.1", "Work", slowCall+time.Millisecond, 100)
	st := reg.HistogramSnapshot("method/Work")
	if st.Count != 2 {
		t.Fatalf("method hist count = %d, want 2", st.Count)
	}
	if st := reg.HistogramSnapshot("lat/obj/L256.1"); st.Count != 2 {
		t.Fatalf("component hist count = %d, want 2", st.Count)
	}
	ex, ok := st.Exemplar()
	if !ok || ex.TraceID != 100 {
		t.Fatalf("want slowest exemplar trace 100, got %+v (ok=%v)", ex, ok)
	}
	evs := rec.Events()
	if len(evs) != 1 || evs[0].Kind != KindSlowCall {
		t.Fatalf("want one slowcall event, got %+v", evs)
	}
	ob.Note(KindActivate, "L256.1", "started", 0)
	if evs := rec.Events(); len(evs) != 2 {
		t.Fatalf("Note did not record: %+v", evs)
	}
}

func TestTelemetryDeltaFiltering(t *testing.T) {
	reg := metrics.NewRegistry()
	rec := NewRecorder("h1")
	tel := NewTelemetry(reg, rec)

	reg.Counter("req/obj/L256.1").Add(5)
	reg.Histogram("lat/obj/L256.1").Observe(time.Millisecond)
	rec.Record(KindMigrate, "L256.1", "committed", 0)

	rp1, err := UnmarshalReport(tel.Report())
	if err != nil {
		t.Fatal(err)
	}
	if len(rp1.Counters) != 1 || rp1.Counters[0].Value != 5 {
		t.Fatalf("counters: %+v", rp1.Counters)
	}
	if len(rp1.Hists) != 1 || rp1.Hists[0].Count != 1 {
		t.Fatalf("hists: %+v", rp1.Hists)
	}
	if len(rp1.Events) != 1 {
		t.Fatalf("events: %+v", rp1.Events)
	}

	// Nothing changed: the next report must be empty of all three.
	rp2, err := UnmarshalReport(tel.Report())
	if err != nil {
		t.Fatal(err)
	}
	if len(rp2.Counters) != 0 || len(rp2.Hists) != 0 || len(rp2.Events) != 0 {
		t.Fatalf("second report not delta-filtered: %+v", rp2)
	}

	// One more observation: only the changed series ships.
	reg.Counter("req/obj/L256.1").Inc()
	rp3, err := UnmarshalReport(tel.Report())
	if err != nil {
		t.Fatal(err)
	}
	if len(rp3.Counters) != 1 || rp3.Counters[0].Value != 6 || len(rp3.Hists) != 0 {
		t.Fatalf("third report: %+v", rp3)
	}

	var nilTel *Telemetry
	if nilTel.Report() != nil {
		t.Fatal("nil telemetry must report nil")
	}
}

func TestReportRoundtripRejectsGarbage(t *testing.T) {
	if _, err := UnmarshalReport(nil); err == nil {
		t.Error("empty report should fail")
	}
	if _, err := UnmarshalReport([]byte{99}); err == nil {
		t.Error("bad version should fail")
	}
	if _, err := UnmarshalReport([]byte{reportVersion, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff}); err == nil {
		t.Error("absurd section length should fail")
	}
}

func TestPlaneIngestAndQuery(t *testing.T) {
	plane := NewPlane(Config{Host: "mag", Registry: metrics.NewRegistry()})

	// A remote host ships telemetry: its counters/hists/events merge in.
	remoteReg := metrics.NewRegistry()
	remoteRec := NewRecorder("host/9")
	remoteReg.Counter("req/obj/L256.1").Add(7)
	remoteReg.Histogram("lat/obj/L256.1").ObserveExemplar(3*time.Millisecond, 0xabc)
	remoteRec.Record(KindCheckpoint, "L256.1", "filed", 0)
	tel := NewTelemetry(remoteReg, remoteRec)
	if err := plane.Ingest("host/9", tel.Report()); err != nil {
		t.Fatal(err)
	}
	// The local registry contributes too; the plane must sum.
	plane.Registry().Counter("req/obj/L256.1").Add(3)

	plane.AddObjectSource(func() []ObjectView {
		return []ObjectView{{LOID: "L256.1", Impl: "sim.worker", Host: "host/9", Active: true}}
	})
	plane.AddHostSource(func() []HostView {
		return []HostView{{Host: "host/9", Score: 1.5, Residents: 1}}
	})

	tab, err := plane.Query("select loid, host, calls, p999, trace from objects where active = true")
	if err != nil {
		t.Fatal(err)
	}
	if len(tab.Rows) != 1 {
		t.Fatalf("want 1 object row, got %+v", tab.Rows)
	}
	row := tab.Rows[0]
	if row[2].F != 10 { // 7 remote + 3 local
		t.Fatalf("merged calls = %v, want 10", row[2].F)
	}
	if row[3].D <= 0 {
		t.Fatalf("p999 not recomputed from shipped buckets: %v", row[3].D)
	}
	if !strings.Contains(row[4].S, "abc") {
		t.Fatalf("exemplar trace lost: %q", row[4].S)
	}

	if tab, err = plane.Query("select host, score from hosts"); err != nil || len(tab.Rows) != 1 {
		t.Fatalf("hosts: %v %+v", err, tab)
	}
	if tab, err = plane.Query("select kind from events where kind = checkpoint"); err != nil || len(tab.Rows) != 1 {
		t.Fatalf("remote event not merged: %v %+v", err, tab)
	}
	if tab, err = plane.Query("select name, value from metrics where name like 'req/%'"); err != nil || len(tab.Rows) != 1 {
		t.Fatalf("metrics: %v %+v", err, tab)
	}
}

func TestPlaneGenerationsAndEpochs(t *testing.T) {
	plane := NewPlane(Config{Host: "mag"})
	plane.epochs = trace.NewRing[Epoch](4)
	plane.NoteGeneration("L256.1", "register", "", 10)
	plane.NoteGeneration("L256.1", "checkpoint", "host/1", 20)
	plane.NoteGeneration("L256.1", "migrate", "host/2", 20)
	gens := plane.Generations("L256.1")
	if len(gens) != 3 || gens[2].Gen != 3 || gens[2].Kind != "migrate" {
		t.Fatalf("generations: %+v", gens)
	}
	tab, err := plane.Query("select object, gen, kind from checkpoints where object = L256.1 order by gen")
	if err != nil || len(tab.Rows) != 3 {
		t.Fatalf("checkpoints table: %v %+v", err, tab)
	}

	for i := 0; i < 10; i++ {
		plane.NoteLoad("host/1", float64(i), 1, 2, 3)
	}
	eps := plane.Epochs()
	if len(eps) != 4 {
		t.Fatalf("epoch ring should retain 4, got %d", len(eps))
	}
	if eps[len(eps)-1].Score != 9 {
		t.Fatalf("newest epoch score = %v, want 9", eps[len(eps)-1].Score)
	}
	tab, err = plane.Query("select written, overwritten from obs where name = epochs")
	if err != nil || len(tab.Rows) != 1 || tab.Rows[0][0].F != 10 || tab.Rows[0][1].F != 6 {
		t.Fatalf("obs table epochs row: %v %+v", err, tab)
	}
}

func TestPlaneGenerationHistoryBounded(t *testing.T) {
	plane := NewPlane(Config{})
	for i := 0; i < maxGensPerObject+10; i++ {
		plane.NoteGeneration("L1.1", "checkpoint", "h", i)
	}
	gens := plane.Generations("L1.1")
	if len(gens) != maxGensPerObject {
		t.Fatalf("history not bounded: %d", len(gens))
	}
	if gens[len(gens)-1].Gen != maxGensPerObject+10 {
		t.Fatalf("newest generation lost: %d", gens[len(gens)-1].Gen)
	}
}

func TestPlaneNilSafe(t *testing.T) {
	var p *Plane
	p.Record("x", "y", "z", 0)
	p.NoteLoad("h", 1, 2, 3, 4)
	p.NoteGeneration("o", "k", "h", 1)
	if p.Recorder() != nil || p.Observer() != nil || p.Registry() != nil || p.Tracer() != nil {
		t.Fatal("nil plane accessors must return nil")
	}
	if err := p.Ingest("h", []byte{1}); err != nil {
		t.Fatal("nil plane ingest should discard")
	}
	if p.Events() != nil || p.Epochs() != nil || p.Generations("o") != nil {
		t.Fatal("nil plane views must be empty")
	}
	if _, err := p.Query("select * from hosts"); err == nil {
		t.Fatal("nil plane query must error")
	}
}

func TestPlaneQueryUnknownTableListsTables(t *testing.T) {
	plane := NewPlane(Config{})
	_, err := plane.Query("select * from nosuch")
	if err == nil || !strings.Contains(err.Error(), "objects") {
		t.Fatalf("error should list tables: %v", err)
	}
}
