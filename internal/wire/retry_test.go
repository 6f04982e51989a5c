package wire

import "testing"

// allCodes enumerates every defined Code constant. The length check in
// TestRetryableCoversAllCodes forces whoever adds a code to extend this
// list — and therefore to decide its retryability explicitly.
var allCodes = []Code{
	OK, ErrApp, ErrNoSuchMethod, ErrNoSuchObject, ErrDenied,
	ErrUnavailable, ErrBadRequest, ErrDeadlineExceeded,
}

// lastCode is the highest defined Code. Bump it when adding a code.
const lastCode = ErrDeadlineExceeded

func TestRetryableCoversAllCodes(t *testing.T) {
	if int(lastCode)+1 != len(allCodes) {
		t.Fatalf("allCodes has %d entries but codes run 0..%d: new Code not added to the retryability table test", len(allCodes), lastCode)
	}
	want := map[Code]bool{
		OK:                  false,
		ErrApp:              false,
		ErrNoSuchMethod:     false,
		ErrNoSuchObject:     true,
		ErrDenied:           false,
		ErrUnavailable:      true,
		ErrBadRequest:       false,
		ErrDeadlineExceeded: false, // definitive: the budget is gone, a retry cannot restore it
	}
	for _, c := range allCodes {
		w, ok := want[c]
		if !ok {
			t.Fatalf("code %v (%d) has no expected retryability entry", c, uint16(c))
		}
		if got := Retryable(c); got != w {
			t.Errorf("Retryable(%v) = %v, want %v", c, got, w)
		}
	}
	// Every defined code must also have a real String (no code%d
	// fallback), so logs stay readable as the protocol grows.
	for _, c := range allCodes {
		if s := c.String(); len(s) > 4 && s[:4] == "code" {
			t.Errorf("code %d has no String case: %q", uint16(c), s)
		}
	}
	// Unknown codes must be definitive: a protocol extension must not
	// cause retry storms against peers that do not understand it.
	if Retryable(lastCode + 1) {
		t.Error("unknown code classified retryable")
	}
}

func TestDeadlineRoundTrip(t *testing.T) {
	env := sampleEnv
	env.Deadline = 1234567890123456789
	f := parse(t, sampleRequest(env))
	if f.Deadline() != env.Deadline || f.Env().Deadline != env.Deadline {
		t.Fatalf("deadline round-trip: got %d want %d", f.Deadline(), env.Deadline)
	}
}
