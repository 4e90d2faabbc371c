// Package flightrec is the always-on crash recorder: a fixed-budget window
// of recent obs events, the counter registry, and the fault injector's
// decision log, dumped as a postmortem bundle when an image crashes or the
// job's failure latch trips. It owns no recording machinery of its own —
// the obs shards ARE the black box (their rings are already bounded and
// lock-free); the recorder adds only the trigger and the dump format.
//
// Determinism contract: the bundle directory is named by the fault log's
// SignatureHash, and every file except volatile.txt is byte-identical
// across runs of the same program under the same fault plan (given the
// simulator's deterministic virtual clocks). Schedule-dependent state —
// poll counts, high-water gauges, blackhole fault events, the obs
// self-meter — is quarantined in volatile.txt so the rest of the bundle
// diffs clean. Nothing here reads host time.
package flightrec

import (
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync/atomic"

	"cafmpi/internal/faults"
	"cafmpi/internal/obs"
	"cafmpi/internal/obs/wallprof"
	"cafmpi/internal/sim"
)

const recKey = "obs.flightrec"

// Recorder is the armed flight recorder for one world. It is created by Arm
// (idempotent; the first caller's directory wins) and fires at most once.
type Recorder struct {
	dir    string
	dumped atomic.Bool
}

// Arm installs the recorder on the world, with bundles written under dir.
// Call before the run starts; the caller must also enable obs (the recorder
// reads, never writes, the shards).
func Arm(w *sim.World, dir string) *Recorder {
	return w.Shared(recKey, func() any {
		return &Recorder{dir: dir}
	}).(*Recorder)
}

// Armed returns the world's recorder, or nil if Arm was never called.
func Armed(w *sim.World) *Recorder {
	if w == nil {
		return nil
	}
	if v, ok := w.Peek(recKey); ok {
		return v.(*Recorder)
	}
	return nil
}

// Dir returns the configured bundle parent directory.
func (r *Recorder) Dir() string {
	if r == nil {
		return ""
	}
	return r.dir
}

// Dump writes the postmortem bundle and returns its directory. It fires at
// most once per recorder (later calls return the same path with no I/O) and
// is a no-op returning "" on a nil recorder. Call only after the world's
// Run has returned — the shards are read-merged here.
func (r *Recorder) Dump(w *sim.World, runErr error) (string, error) {
	if r == nil {
		return "", nil
	}
	ow := obs.Enabled(w)
	if ow == nil {
		return "", fmt.Errorf("flightrec: obs not enabled; nothing to dump")
	}
	st := faults.Enabled(w)
	log := st.Log()
	hash := faults.SignatureHash(log)
	bundle := filepath.Join(r.dir, "postmortem-"+hash[:12])
	if !r.dumped.CompareAndSwap(false, true) {
		return bundle, nil
	}
	if err := os.MkdirAll(bundle, 0o755); err != nil {
		return "", err
	}
	// The wallprof summary rides along when the profiling plane is on: host
	// wall time is inherently schedule-dependent, so it lands in
	// volatile.txt, outside the determinism contract. No virtual blame is
	// attached here — a crashed run has no trustworthy critical path.
	var wallSummary string
	if wrep := wallprof.Enabled(w).Analyze(nil, 0); wrep != nil {
		wallSummary = wrep.Text()
	}
	files := map[string]string{
		"MANIFEST.txt":  manifest(w, st, hash, runErr),
		"signature.txt": signatureFile(log, hash),
		"counters.txt":  countersFile(ow, false),
		"events.txt":    eventsFile(ow),
		"volatile.txt":  volatileFile(ow, log, wallSummary),
	}
	for name, body := range files {
		if err := os.WriteFile(filepath.Join(bundle, name), []byte(body), 0o644); err != nil {
			return "", err
		}
	}
	return bundle, nil
}

// manifest renders the bundle's front page. The cause line is derived from
// the failure latch (deterministic), never from the raw run error, whose
// rendering may embed goroutine stacks.
func manifest(w *sim.World, st *faults.State, hash string, runErr error) string {
	var b strings.Builder
	b.WriteString("caf postmortem bundle\n")
	status := "failed"
	cause := ""
	if latchErr := st.ErrOp("postmortem"); latchErr != nil {
		cause = latchErr.Error()
	} else if runErr != nil {
		cause = "run failed (latch not tripped; see volatile.txt)"
	} else {
		status = "clean"
	}
	fmt.Fprintf(&b, "status: %s\n", status)
	if cause != "" {
		fmt.Fprintf(&b, "cause: %s\n", cause)
	}
	fmt.Fprintf(&b, "failed_image: %d\n", st.FailedImage())
	fmt.Fprintf(&b, "images: %d\n", w.N())
	fmt.Fprintf(&b, "signature_hash: %s\n", hash)
	b.WriteString("files: MANIFEST.txt signature.txt counters.txt events.txt volatile.txt\n")
	b.WriteString("determinism: all files except volatile.txt are byte-stable across reruns of the same plan\n")
	return b.String()
}

func signatureFile(log []faults.Event, hash string) string {
	var b strings.Builder
	fmt.Fprintf(&b, "signature_hash: %s\n", hash)
	b.WriteString("# schedule-independent fault decisions (sorted, T zeroed, blackholes excluded)\n")
	b.WriteString(faults.Signature(log))
	return b.String()
}

// countersFile renders the merged counter registry plus per-image non-zero
// rows. volatile selects which half of the registry is emitted.
func countersFile(ow *obs.World, volatile bool) string {
	var b strings.Builder
	for _, c := range obs.Counters() {
		if c.IsVolatile() != volatile {
			continue
		}
		var merged int64
		for i := 0; i < ow.N(); i++ {
			v := ow.Shard(i).Counter(c)
			if c.IsGauge() {
				if v > merged {
					merged = v
				}
			} else {
				merged += v
			}
		}
		if merged == 0 {
			continue
		}
		fmt.Fprintf(&b, "%-24s %14d\n", c.String(), merged)
		for i := 0; i < ow.N(); i++ {
			if v := ow.Shard(i).Counter(c); v != 0 {
				fmt.Fprintf(&b, "  image %-6d %14d\n", i, v)
			}
		}
	}
	if b.Len() == 0 {
		b.WriteString("(all zero)\n")
	}
	return b.String()
}

// eventsFile renders each image's retained event window, oldest first — the
// flight recorder's "last N seconds of telemetry". For a crashed image the
// final line is its crash marker.
func eventsFile(ow *obs.World) string {
	var b strings.Builder
	for i := 0; i < ow.N(); i++ {
		sh := ow.Shard(i)
		fmt.Fprintf(&b, "== image %d: %d recorded, %d dropped\n", i, sh.Recorded(), sh.Dropped())
		for _, e := range sh.Events() {
			fmt.Fprintf(&b, "t=%d..%d %s/%s peer=%d bytes=%d tag=%d\n",
				e.Start, e.End, e.Layer, e.Op, e.Peer, e.Bytes, e.Tag)
		}
	}
	return b.String()
}

// volatileFile quarantines everything schedule-dependent: volatile
// counters/gauges, the obs self-meter, the wallprof host-time summary (when
// profiling was on), and the raw fault log with timestamps and blackhole
// events included.
func volatileFile(ow *obs.World, log []faults.Event, wallSummary string) string {
	var b strings.Builder
	b.WriteString("# schedule-dependent state; excluded from the determinism contract\n")
	b.WriteString(countersFile(ow, true))
	var obsMax int64
	for i := 0; i < ow.N(); i++ {
		if v := ow.Shard(i).MemBytes(); v > obsMax {
			obsMax = v
		}
	}
	fmt.Fprintf(&b, "%-24s %14d\n", obs.CtrObsBytesPerImage.String(), obsMax)
	if wallSummary != "" {
		b.WriteString("# wallprof host-time summary (wall clock; schedule-dependent by nature)\n")
		b.WriteString(wallSummary)
	}
	b.WriteString("# raw fault log (timestamps and blackholes included)\n")
	for _, ev := range log {
		b.WriteString(ev.String())
		b.WriteByte('\n')
	}
	return b.String()
}
