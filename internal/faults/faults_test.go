package faults

import (
	"errors"
	"testing"
)

// replay drives one OnSend per (src,dst) pair in the given order and
// returns the verdicts keyed by pair.
func replay(st *State, order [][2]int) map[[2]int][]Verdict {
	out := make(map[[2]int][]Verdict)
	for _, p := range order {
		out[p] = append(out[p], st.OnSend("mpi", 1, p[0], p[1], 0))
	}
	return out
}

// TestDecisionDeterminism: verdicts are a pure function of the plan and
// each sender's per-destination program order — interleaving sends from
// different pairs differently must not change any decision.
func TestDecisionDeterminism(t *testing.T) {
	plan := &Plan{Seed: 42, Rules: []Rule{
		{Kind: KindDrop, Src: -1, Dst: -1, Prob: 0.3},
		{Kind: KindDup, Src: -1, Dst: -1, Prob: 0.2, DelayNS: 500},
		{Kind: KindDelay, Src: -1, Dst: -1, Prob: 0.25, DelayNS: 1000},
	}}
	pairs := [][2]int{{0, 1}, {1, 0}, {0, 2}, {2, 1}}
	var orderA, orderB [][2]int
	for i := 0; i < 32; i++ {
		for _, p := range pairs {
			orderA = append(orderA, p)
		}
	}
	// B interleaves the same per-pair send streams completely differently.
	for _, p := range pairs {
		for i := 0; i < 32; i++ {
			orderB = append(orderB, p)
		}
	}
	a := replay(newState(4, plan), orderA)
	b := replay(newState(4, plan), orderB)
	injected := 0
	for _, p := range pairs {
		va, vb := a[p], b[p]
		if len(va) != 32 || len(vb) != 32 {
			t.Fatalf("pair %v: got %d/%d verdicts, want 32", p, len(va), len(vb))
		}
		for i := range va {
			if va[i] != vb[i] {
				t.Fatalf("pair %v send %d: verdict differs across interleavings: %+v vs %+v", p, i, va[i], vb[i])
			}
			if va[i].Seq != uint64(i) {
				t.Fatalf("pair %v send %d: seq %d, want program order", p, i, va[i].Seq)
			}
			injected += va[i].Injected
		}
	}
	if injected == 0 {
		t.Fatal("plan with prob 0.2-0.3 rules injected nothing in 128 sends")
	}
}

// TestSignatureScheduleIndependence: the signature ignores timestamps,
// log order, and blackhole events.
func TestSignatureScheduleIndependence(t *testing.T) {
	evs1 := []Event{
		{T: 100, Kind: KindDrop, Layer: "mpi", Src: 0, Dst: 1, Seq: 3},
		{T: 200, Kind: KindDup, Layer: "gasnet", Src: 1, Dst: 0, Seq: 7, DelayNS: 500},
		{T: 300, Kind: KindBlackhole, Src: 2, Dst: 1, Seq: 9},
	}
	evs2 := []Event{
		{T: 999, Kind: KindDup, Layer: "gasnet", Src: 1, Dst: 0, Seq: 7, DelayNS: 500},
		{T: 5, Kind: KindDrop, Layer: "mpi", Src: 0, Dst: 1, Seq: 3},
	}
	if Signature(evs1) != Signature(evs2) {
		t.Fatalf("signatures differ:\n%q\n%q", Signature(evs1), Signature(evs2))
	}
	if SignatureHash(evs1) != SignatureHash(evs2) {
		t.Fatal("signature hashes differ")
	}
	evs3 := append([]Event(nil), evs2...)
	evs3[0].Seq = 8
	if Signature(evs1) == Signature(evs3) {
		t.Fatal("signature blind to a decision change")
	}
}

// TestRetryExhaustion: a certain drop exhausts the retry budget with
// exponential backoff charged to the verdict.
func TestRetryExhaustion(t *testing.T) {
	st := newState(2, &Plan{Seed: 1, Rules: []Rule{{Kind: KindDrop, Src: -1, Dst: -1, Prob: 1}}})
	v := st.OnSend("mpi", 1, 0, 1, 0)
	if !v.Exhausted {
		t.Fatal("prob-1 drop did not exhaust retries")
	}
	if v.Retries != DefaultMaxRetries {
		t.Fatalf("retries = %d, want %d", v.Retries, DefaultMaxRetries)
	}
	want := int64(0)
	for k := 0; k < DefaultMaxRetries; k++ {
		want += DefaultRetryTimeoutNS << uint(k)
	}
	if v.RetryWaitNS != want {
		t.Fatalf("retry wait = %d, want %d (exponential backoff)", v.RetryWaitNS, want)
	}
	// maxRetries+1 drop events plus the exhaustion marker.
	if v.Injected != DefaultMaxRetries+2 {
		t.Fatalf("injected = %d, want %d", v.Injected, DefaultMaxRetries+2)
	}
}

// TestMaxCountBudget: MaxCount caps a rule's fires per sending image, in
// program order.
func TestMaxCountBudget(t *testing.T) {
	st := newState(2, &Plan{Seed: 1, Rules: []Rule{
		{Kind: KindDrop, Src: -1, Dst: -1, Prob: 1, MaxCount: 2},
	}})
	v := st.OnSend("mpi", 1, 0, 1, 0)
	if v.Exhausted {
		t.Fatal("budget 2 should not exhaust a 4-retry sender")
	}
	if v.Retries != 2 {
		t.Fatalf("retries = %d, want 2 (budget-capped)", v.Retries)
	}
	if v2 := st.OnSend("mpi", 1, 0, 1, 0); v2.Retries != 0 || v2.Injected != 0 {
		t.Fatalf("second send still faulted after budget spent: %+v", v2)
	}
}

// TestCheckpointOneShot: crash and stall points fire exactly once, only at
// or after their virtual time, and latch the failure state.
func TestCheckpointOneShot(t *testing.T) {
	st := newState(4, &Plan{Seed: 1,
		Crashes: []CrashPoint{{Image: 2, AtNS: 1000}},
		Stalls:  []StallPoint{{Image: 1, AtNS: 500, DurNS: 250}},
	})
	if ns, crashed := st.Checkpoint(2, 999); ns != 0 || crashed {
		t.Fatal("checkpoint fired before its virtual time")
	}
	if ns, crashed := st.Checkpoint(1, 600); ns != 250 || crashed {
		t.Fatalf("stall: got (%d,%v), want (250,false)", ns, crashed)
	}
	if ns, _ := st.Checkpoint(1, 700); ns != 0 {
		t.Fatal("stall fired twice")
	}
	if _, crashed := st.Checkpoint(2, 1000); !crashed {
		t.Fatal("crash point did not fire at its time")
	}
	if _, crashed := st.Checkpoint(2, 1100); crashed {
		t.Fatal("crash point fired twice")
	}
	if !st.Down() || !st.ImageDown(2) || st.FailedImage() != 2 {
		t.Fatal("crash did not latch the failure state")
	}
	err := st.ErrOp("barrier")
	if !errors.Is(err, ErrImageFailed) {
		t.Fatalf("ErrOp = %v, want ErrImageFailed chain", err)
	}
	var ie *ImageError
	if !errors.As(err, &ie) || ie.Image != 2 || ie.Op != "barrier" {
		t.Fatalf("ErrOp = %#v, want ImageError{Image:2, Op:barrier}", err)
	}
}

// TestMultipleFailedImages: ImageDown tracks every crashed image, not just
// the first (with two crash points, sends to either dead image must
// blackhole); FailedImage keeps reporting the first.
func TestMultipleFailedImages(t *testing.T) {
	st := newState(4, &Plan{})
	st.MarkFailed(2)
	st.MarkFailed(0)
	if st.FailedImage() != 2 {
		t.Fatalf("FailedImage = %d, want first-failed 2", st.FailedImage())
	}
	for img, want := range map[int]bool{0: true, 1: false, 2: true, 3: false} {
		if st.ImageDown(img) != want {
			t.Errorf("ImageDown(%d) = %v, want %v", img, !want, want)
		}
	}
	if st.ImageDown(-1) || st.ImageDown(4) {
		t.Fatal("out-of-range rank reported down")
	}
}

// TestCancel: cancellation trips the latch with the cause in the chain and
// fires wake hooks, including those registered after the trip.
func TestCancel(t *testing.T) {
	st := newState(2, &Plan{})
	cause := errors.New("deadline exceeded")
	woke := 0
	st.OnWake(func() { woke++ })
	st.Cancel(cause)
	if woke != 1 {
		t.Fatal("wake hook did not fire on cancel")
	}
	st.OnWake(func() { woke++ })
	if woke != 2 {
		t.Fatal("late wake hook did not fire immediately")
	}
	if err := st.Err(); !errors.Is(err, cause) {
		t.Fatalf("Err = %v, want chain containing the cancel cause", err)
	}
}

// TestNilState: every method is safe and inert on a nil state.
func TestNilState(t *testing.T) {
	var st *State
	if st.Active() || st.Down() || st.ImageDown(0) || st.Err() != nil || st.Plan() != nil {
		t.Fatal("nil state is not inert")
	}
	st.Cancel(nil)
	st.MarkFailed(0)
	st.Record(0, Event{})
	st.OnWake(func() { t.Fatal("nil state fired a wake") })
	if st.Log() != nil {
		t.Fatal("nil state has a log")
	}
}

// TestPlanJSON: JSON plans decode with wildcard defaults, reject unknown
// fields, and Validate catches malformed rules.
func TestPlanJSON(t *testing.T) {
	p, err := Parse([]byte(`{
		"seed": 7,
		"rules": [
			{"kind": "drop", "prob": 0.01},
			{"kind": "delay", "src": 0, "dst": 3, "prob": 1, "delay_ns": 2000}
		],
		"crashes": [{"image": 1, "at_ns": 50000}],
		"stalls": [{"image": 0, "at_ns": 100, "dur_ns": 400}]
	}`))
	if err != nil {
		t.Fatal(err)
	}
	if p.Seed != 7 || len(p.Rules) != 2 || len(p.Crashes) != 1 || len(p.Stalls) != 1 {
		t.Fatalf("decoded plan wrong: %+v", p)
	}
	if p.Rules[0].Src != -1 || p.Rules[0].Dst != -1 {
		t.Fatalf("omitted src/dst should default to wildcard -1, got %+v", p.Rules[0])
	}
	if p.Rules[1].Src != 0 || p.Rules[1].Dst != 3 {
		t.Fatalf("explicit src/dst lost: %+v", p.Rules[1])
	}
	if err := p.Validate(4); err != nil {
		t.Fatalf("valid plan rejected: %v", err)
	}
	if err := p.Validate(3); !errors.Is(err, ErrInvalid) {
		t.Fatalf("dst 3 in a 3-image world should fail validation, got %v", err)
	}

	bad := []string{
		`{"rules": [{"kind": "smash", "prob": 1}]}`,
		`{"rules": [{"kind": "drop", "prob": 1.5}]}`,
		`{"rules": [{"kind": "delay", "prob": 1}]}`,
		`{"rules": [{"kind": "drop", "prob": 1, "from_ns": 10, "until_ns": 5}]}`,
		`{"rules": [{"kind": "drop", "prob": 1, "layer": "tcp"}]}`,
		`{"stalls": [{"image": 0, "at_ns": 1, "dur_ns": 0}]}`,
		`{"bogus_field": 1}`,
		`{"rules": [{"kind": "drop", "prob": 1, "bogus_field": 1}]}`,
		`{"seed": 1} {"seed": 2}`,
		`{"seed": 1} garbage`,
		`{"seed": 1} ]`,
	}
	for _, s := range bad {
		if _, err := Parse([]byte(s)); !errors.Is(err, ErrInvalid) {
			t.Errorf("Parse(%s) = %v, want ErrInvalid", s, err)
		}
	}
}

// TestLoadSpec: the -faults flag grammar.
func TestLoadSpec(t *testing.T) {
	p, err := LoadSpec("canonical")
	if err != nil || p.Seed != 1 || len(p.Rules) != 1 || p.Rules[0].Prob != 0.01 {
		t.Fatalf("canonical spec: %+v, %v", p, err)
	}
	if p, err = LoadSpec("canonical:99"); err != nil || p.Seed != 99 {
		t.Fatalf("canonical:99 spec: %+v, %v", p, err)
	}
	if _, err = LoadSpec("canonical:x"); !errors.Is(err, ErrInvalid) {
		t.Fatalf("bad canonical seed: %v", err)
	}
	if _, err = LoadSpec("/nonexistent/plan.json"); err == nil {
		t.Fatal("missing plan file did not error")
	}
}

// TestErrorChains: the exported sentinels compose as documented.
func TestErrorChains(t *testing.T) {
	if !errors.Is(ErrRetriesExhausted, ErrTimeout) {
		t.Fatal("ErrRetriesExhausted should wrap ErrTimeout")
	}
	c := Crashed{Image: 3}
	if !errors.Is(c, ErrImageFailed) {
		t.Fatal("Crashed should wrap ErrImageFailed")
	}
	ie := c.Into()
	if !errors.Is(ie, ErrImageFailed) || ie.Image != 3 {
		t.Fatalf("Into() = %#v", ie)
	}
}
