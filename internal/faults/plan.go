// Package faults is a deterministic, virtual-clock-driven fault injector
// for the simulated fabric. A Plan (JSON or programmatic) describes message
// faults — drop, duplicate, delay, reorder — per message class / source /
// destination / virtual-time window, plus image crash and stall points at
// virtual times. Every probabilistic decision is a pure keyed hash of
// (seed, src, dst, seq, rule, attempt), where seq is the sender's
// per-destination program-order message counter, so the injected-fault
// decisions are bit-reproducible across goroutine schedules — the same
// discipline the determinism goldens and the sanitizer rely on.
//
// The package only *computes* fault verdicts; the fabric applies them
// (clock advances, duplicate enqueues, crash panics). That keeps faults
// clock-pure: it never touches a simulated clock and never calls back into
// a runtime layer, which caflint's clockpure analyzer enforces.
package faults

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"strconv"
	"strings"
)

// Rule kinds.
const (
	KindDrop    = "drop"    // message lost; sender retries with backoff
	KindDup     = "dup"     // message delivered twice; receiver dedups
	KindDelay   = "delay"   // arrival delayed by DelayNS
	KindReorder = "reorder" // arrival jittered by hash-derived [0,DelayNS)
)

// Rule is one fault-injection rule. A rule matches a message when every
// constraint holds: Layer ("" = any, else "mpi"/"gasnet"), Class (0 = any),
// Src/Dst (-1 = any), and the sender's virtual clock lies in [From, Until)
// (Until 0 = unbounded). A matching rule fires with probability Prob, drawn
// from the keyed hash. MaxCount (0 = unlimited) caps how many times the
// rule fires per sending image, counted in the sender's program order so
// the cap is schedule-independent.
type Rule struct {
	Kind     string  `json:"kind"`
	Layer    string  `json:"layer,omitempty"`
	Class    int     `json:"class,omitempty"`
	Src      int     `json:"src"`
	Dst      int     `json:"dst"`
	From     int64   `json:"from_ns,omitempty"`
	Until    int64   `json:"until_ns,omitempty"`
	Prob     float64 `json:"prob"`
	DelayNS  int64   `json:"delay_ns,omitempty"`
	MaxCount int     `json:"max_count,omitempty"`
}

// UnmarshalJSON decodes a rule with wildcard defaults (Src/Dst -1) so a
// plan file may omit them; a literal 0 still means image 0. Unknown fields
// are rejected, as they are at the plan level.
func (r *Rule) UnmarshalJSON(b []byte) error {
	type alias Rule
	a := alias{Src: -1, Dst: -1}
	dec := json.NewDecoder(bytes.NewReader(b))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&a); err != nil {
		return err
	}
	*r = Rule(a)
	return nil
}

func (r *Rule) matches(layer string, class uint8, src, dst int, now int64) bool {
	if r.Layer != "" && r.Layer != layer {
		return false
	}
	if r.Class != 0 && r.Class != int(class) {
		return false
	}
	if r.Src >= 0 && r.Src != src {
		return false
	}
	if r.Dst >= 0 && r.Dst != dst {
		return false
	}
	if now < r.From {
		return false
	}
	if r.Until > 0 && now >= r.Until {
		return false
	}
	return true
}

// CrashPoint fails an image: the first fabric operation the image performs
// at or after virtual time AtNS panics with Crashed{Image}, which the core
// runtime converts into an ErrImageFailed-typed error, and every other
// image's blocked operation unblocks with the same error.
type CrashPoint struct {
	Image int   `json:"image"`
	AtNS  int64 `json:"at_ns"`
}

// StallPoint freezes an image once: the first fabric operation at or after
// AtNS charges an extra DurNS of virtual time (a GC pause, an OS jitter
// spike, a slow NIC — pick your poison).
type StallPoint struct {
	Image int   `json:"image"`
	AtNS  int64 `json:"at_ns"`
	DurNS int64 `json:"dur_ns"`
}

// Plan is a complete fault-injection schedule.
type Plan struct {
	// Seed keys the decision hash; two runs with the same plan make
	// bit-identical injection decisions.
	Seed uint64 `json:"seed"`
	// MaxRetries bounds the sender's retransmissions of a dropped message
	// (default 4). When every attempt is dropped the send fails with
	// ErrRetriesExhausted.
	MaxRetries int `json:"max_retries,omitempty"`
	// RetryTimeoutNS is the virtual-time ack timeout before the first
	// retransmission (default 8000ns); attempt k waits timeout<<k
	// (exponential backoff).
	RetryTimeoutNS int64 `json:"retry_timeout_ns,omitempty"`

	Rules   []Rule       `json:"rules,omitempty"`
	Crashes []CrashPoint `json:"crashes,omitempty"`
	Stalls  []StallPoint `json:"stalls,omitempty"`
}

// Defaults for the retry protocol.
const (
	DefaultMaxRetries     = 4
	DefaultRetryTimeoutNS = 8_000
)

func (p *Plan) maxRetries() int {
	if p.MaxRetries > 0 {
		return p.MaxRetries
	}
	return DefaultMaxRetries
}

func (p *Plan) retryTimeout() int64 {
	if p.RetryTimeoutNS > 0 {
		return p.RetryTimeoutNS
	}
	return DefaultRetryTimeoutNS
}

// empty reports whether the plan injects nothing (the zero-cost default).
func (p *Plan) empty() bool {
	return p == nil || (len(p.Rules) == 0 && len(p.Crashes) == 0 && len(p.Stalls) == 0)
}

// Validate checks the plan against the world size n (pass n <= 0 to skip
// rank range checks).
func (p *Plan) Validate(n int) error {
	if p == nil {
		return nil
	}
	inRange := func(r int) bool { return n <= 0 || (r >= 0 && r < n) }
	for i, r := range p.Rules {
		switch r.Kind {
		case KindDrop, KindDup, KindDelay, KindReorder:
		default:
			return fmt.Errorf("%w: rule %d: unknown kind %q", ErrInvalid, i, r.Kind)
		}
		if r.Layer != "" && r.Layer != "mpi" && r.Layer != "gasnet" {
			return fmt.Errorf("%w: rule %d: unknown layer %q", ErrInvalid, i, r.Layer)
		}
		if r.Prob < 0 || r.Prob > 1 {
			return fmt.Errorf("%w: rule %d: probability %g outside [0,1]", ErrInvalid, i, r.Prob)
		}
		if r.Src >= 0 && !inRange(r.Src) {
			return fmt.Errorf("%w: rule %d: src %d outside world [0,%d)", ErrInvalid, i, r.Src, n)
		}
		if r.Dst >= 0 && !inRange(r.Dst) {
			return fmt.Errorf("%w: rule %d: dst %d outside world [0,%d)", ErrInvalid, i, r.Dst, n)
		}
		if r.DelayNS < 0 {
			return fmt.Errorf("%w: rule %d: negative delay", ErrInvalid, i)
		}
		if (r.Kind == KindDelay || r.Kind == KindReorder) && r.DelayNS == 0 {
			return fmt.Errorf("%w: rule %d: %s rule needs delay_ns > 0", ErrInvalid, i, r.Kind)
		}
		if r.Until > 0 && r.Until <= r.From {
			return fmt.Errorf("%w: rule %d: empty window [%d,%d)", ErrInvalid, i, r.From, r.Until)
		}
	}
	for i, c := range p.Crashes {
		if !inRange(c.Image) {
			return fmt.Errorf("%w: crash %d: image %d outside world [0,%d)", ErrInvalid, i, c.Image, n)
		}
	}
	for i, s := range p.Stalls {
		if !inRange(s.Image) {
			return fmt.Errorf("%w: stall %d: image %d outside world [0,%d)", ErrInvalid, i, s.Image, n)
		}
		if s.DurNS <= 0 {
			return fmt.Errorf("%w: stall %d: dur_ns must be positive", ErrInvalid, i)
		}
	}
	return nil
}

// Parse decodes a JSON plan and validates its world-independent invariants.
// The input must hold exactly one JSON object; anything after it but
// whitespace is rejected. Empty lists decode as absent, so re-encoding a
// parsed plan yields its canonical form.
func Parse(b []byte) (*Plan, error) {
	var p Plan
	dec := json.NewDecoder(bytes.NewReader(b))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&p); err != nil {
		return nil, fmt.Errorf("%w: parsing fault plan: %v", ErrInvalid, err)
	}
	if err := dec.Decode(&struct{}{}); err != io.EOF {
		return nil, fmt.Errorf("%w: parsing fault plan: trailing data after the plan object", ErrInvalid)
	}
	if len(p.Rules) == 0 {
		p.Rules = nil
	}
	if len(p.Crashes) == 0 {
		p.Crashes = nil
	}
	if len(p.Stalls) == 0 {
		p.Stalls = nil
	}
	if err := p.Validate(0); err != nil {
		return nil, err
	}
	return &p, nil
}

// Load reads a JSON plan from a file.
func Load(path string) (*Plan, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("loading fault plan: %w", err)
	}
	p, err := Parse(b)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return p, nil
}

// Canonical returns the canonical chaos plan: 1% uniform drop on every
// message class on both layers. It is the plan the CI chaos-smoke step and
// the EXPERIMENTS.md recipe run RandomAccess and the event ping-pong under.
func Canonical(seed uint64) *Plan {
	return &Plan{
		Seed:  seed,
		Rules: []Rule{{Kind: KindDrop, Src: -1, Dst: -1, Prob: 0.01}},
	}
}

// CanonicalCrash is Canonical plus a crash point: image 1 dies at 50µs of
// virtual time. It is the plan the flight-recorder smoke and the CI
// postmortem-artifact step use — every run of it produces the same
// signature-stamped bundle.
func CanonicalCrash(seed uint64) *Plan {
	p := Canonical(seed)
	p.Crashes = []CrashPoint{{Image: 1, AtNS: 50_000}}
	return p
}

// LoadSpec resolves a -faults flag value: "canonical" or "canonical:SEED"
// for the built-in 1%-drop plan, "canonical-crash" or "canonical-crash:SEED"
// for the same plan plus the image-1 crash point, anything else as a JSON
// plan file path.
func LoadSpec(spec string) (*Plan, error) {
	if spec == "canonical" {
		return Canonical(1), nil
	}
	if spec == "canonical-crash" {
		return CanonicalCrash(1), nil
	}
	if rest, ok := strings.CutPrefix(spec, "canonical-crash:"); ok {
		seed, err := strconv.ParseUint(rest, 10, 64)
		if err != nil {
			return nil, fmt.Errorf("%w: bad canonical seed %q", ErrInvalid, rest)
		}
		return CanonicalCrash(seed), nil
	}
	if rest, ok := strings.CutPrefix(spec, "canonical:"); ok {
		seed, err := strconv.ParseUint(rest, 10, 64)
		if err != nil {
			return nil, fmt.Errorf("%w: bad canonical seed %q", ErrInvalid, rest)
		}
		return Canonical(seed), nil
	}
	return Load(spec)
}
