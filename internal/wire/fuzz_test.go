package wire

import (
	"bytes"
	"encoding/hex"
	"os"
	"strings"
	"testing"

	"repro/internal/loid"
	"repro/internal/oa"
)

// seedFrame is one named frame shape.
type seedFrame struct {
	name string
	data []byte
}

// seedFrames are the valid frames FuzzParseFrame seeds from, one per
// shape; testdata/frames.golden pins their bytes.
func seedFrames() []seedFrame {
	env := sampleEnv
	env.Deadline = 123
	env.TraceID, env.SpanID, env.ParentSpanID = 7, 8, 9
	multiArgs := [][]byte{nil, {}, {1}, bytes.Repeat([]byte{0xAB}, 300)}
	return []seedFrame{
		{"request", sampleRequest(env)},
		{"reply", AppendReply(nil, 42, env.Calling, ErrApp, "boom", [][]byte{String("result")}, oa.Single(oa.MemElement(3)))},
		{"oneway", AppendRequest(nil, KindOneWay, 0, loid.NewNoKey(9, 9), "Notify", &Env{}, oa.Address{}, nil)},
		{"noargs", AppendRequest(nil, KindRequest, 1, loid.NewNoKey(2, 3), "Ping", &Env{}, oa.Single(oa.MemElement(1)), nil)},
		{"multi", AppendRequest(nil, KindRequest, 2, loid.NewNoKey(2, 3), "W", &Env{},
			oa.Replicated(oa.SemAll, 0, oa.MemElement(1), oa.MemElement(2), oa.MemElement(3)), multiArgs)},
	}
}

// reencode builds a frame anew from every field a parsed frame exposes.
func reencode(f *Frame) []byte {
	env := f.Env()
	data := appendV4(nil, f.Kind, f.ID, f.Code, f.Target(), string(f.MethodBytes()), &env,
		replyTo(f), f.ErrText(), f.ArgViews(nil))
	if f.Waits() {
		MarkWaits(data)
	}
	return data
}

// TestSeedFramesGolden pins the bytes of every frame shape the fuzz
// corpus starts from: request, reply with error text and results,
// one-way, no-arg request, and a multi-arg request with a replicated
// reply-to.
func TestSeedFramesGolden(t *testing.T) {
	var got strings.Builder
	for _, s := range seedFrames() {
		got.WriteString(s.name + " " + hex.EncodeToString(s.data) + "\n")
	}
	want, err := os.ReadFile("testdata/frames.golden")
	if err != nil {
		t.Fatal(err)
	}
	if got.String() != string(want) {
		t.Errorf("seed frames moved:\n got %s\nwant %s", got.String(), want)
	}
}

// FuzzParseFrame drives the frame decoder with arbitrary bytes. The
// properties checked:
//
//  1. Parse never panics or reads out of bounds (the fuzz engine
//     catches both), in Parse itself or in any accessor of a frame it
//     accepts.
//  2. An accepted frame re-encodes from its fields to bytes that are
//     accepted again and decode to the same fields — the decoder
//     cannot "accept" a frame into an unencodable state.
//
// The seed corpus covers v4, the one accepted version, in the three
// kinds; each seed frame again under a retired v2 and v3 header, which
// the decoder must refuse; and the corruption shapes the unit tests
// probe (truncations, trailing garbage, bad magic/version), plus a
// request marked as waited on.
func FuzzParseFrame(f *testing.F) {
	seeds := seedFrames()
	for _, s := range seeds {
		for _, ver := range []byte{2, 3, 4} {
			data := append([]byte(nil), s.data...)
			data[2] = ver
			f.Add(data)
		}
	}
	good := seeds[0].data
	f.Add(good[:len(good)/2])                       // truncation
	f.Add(append(good[:len(good):len(good)], 0xFF)) // trailing garbage
	bad := append([]byte(nil), good...)
	bad[0] = 0xFF // bad magic
	f.Add(bad)
	bad2 := append([]byte(nil), good...)
	bad2[2] = 99 // bad version
	f.Add(bad2)
	waits := append([]byte(nil), good...)
	MarkWaits(waits) // a request whose sender waits on the reply
	f.Add(waits)
	f.Add([]byte{})
	f.Add([]byte{0x4C, 0x47, 4, 1})

	f.Fuzz(func(t *testing.T, data []byte) {
		var fr Frame
		if fr.Parse(data) != nil {
			return
		}
		var again Frame
		if err := again.Parse(reencode(&fr)); err != nil {
			t.Fatalf("re-encoded frame rejected: %v", err)
		}
		if again.Kind != fr.Kind || again.Waits() != fr.Waits() || again.ID != fr.ID || again.Code != fr.Code ||
			again.Target() != fr.Target() || again.Env() != fr.Env() ||
			!bytes.Equal(again.MethodBytes(), fr.MethodBytes()) || again.ErrText() != fr.ErrText() ||
			!replyTo(&again).Equal(replyTo(&fr)) || again.NumArgs() != fr.NumArgs() {
			t.Fatalf("round-trip mutated the frame %x", data)
		}
		for i := 0; i < fr.NumArgs(); i++ {
			if !bytes.Equal(again.Arg(i), fr.Arg(i)) {
				t.Fatalf("arg %d mutated", i)
			}
		}
	})
}
