package wallprof

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"math"
	"strings"
	"sync"
	"testing"

	"cafmpi/internal/obs"
	"cafmpi/internal/sim"
)

func TestDisabledIsNilSafe(t *testing.T) {
	w := sim.NewWorld(4)
	if Enabled(w) != nil {
		t.Fatal("Enabled before Enable should be nil")
	}
	var ww *World
	ww.Finish()
	ww.DepositGauges(nil)
	if ww.CPUProfile() != nil || ww.Host() != (HostStats{}) {
		t.Fatal("nil World accessors should zero out")
	}
	if ww.Analyze(nil, 0) != nil {
		t.Fatal("nil World Analyze should be nil")
	}
}

func TestLabelImageAndContentionToggles(t *testing.T) {
	w := sim.NewWorld(4)
	ww := Enable(w)
	var alive sync.WaitGroup
	alive.Add(4)
	err := w.Run(func(p *sim.Proc) error {
		alive.Done()
		alive.Wait() // every image is running before any labels itself
		LabelImage(p)
		return nil
	})
	ww.Finish()
	if err != nil {
		t.Fatal(err)
	}
	if g := ww.Host().GoroutineMax; g < 4 {
		t.Errorf("goroutine high-water %d, want at least the 4 images", g)
	}
	restore := EnableContention()
	restore()
}

// pb is a minimal protobuf encoder for hand-built profiles.
type pb []byte

func (b pb) varint(field int, v uint64) pb {
	return binary.AppendUvarint(binary.AppendUvarint(b, uint64(field)<<3), v)
}

func (b pb) bytes(field int, sub []byte) pb {
	b = binary.AppendUvarint(b, uint64(field)<<3|2)
	return append(binary.AppendUvarint(b, uint64(len(sub))), sub...)
}

func (b pb) packed(field int, vs ...uint64) pb {
	var sub []byte
	for _, v := range vs {
		sub = binary.AppendUvarint(sub, v)
	}
	return b.bytes(field, sub)
}

type handSample struct {
	locs []int // indices into the location list, leaf first
	n    uint64
}

// handProfile encodes a gzipped pprof CPU profile. Each location is a list
// of function names, innermost inlined frame first. A sample with one
// location is written unpacked, as runtime/pprof writes short lists.
func handProfile(locs [][]string, samples []handSample) []byte {
	var out, fns pb
	strs := []string{""}
	fnID := map[string]uint64{}
	for _, s := range samples {
		ids := make([]uint64, len(s.locs))
		for i, l := range s.locs {
			ids[i] = uint64(l + 1)
		}
		var sm pb
		if len(ids) == 1 {
			sm = sm.varint(1, ids[0])
		} else {
			sm = sm.packed(1, ids...)
		}
		out = out.bytes(2, sm.packed(2, s.n, s.n*10_000_000))
	}
	for i, names := range locs {
		loc := pb(nil).varint(1, uint64(i+1)).varint(3, 0x4000+uint64(i))
		for _, name := range names {
			id, ok := fnID[name]
			if !ok {
				id = uint64(len(fnID) + 1)
				fnID[name] = id
				strs = append(strs, name)
				fns = fns.bytes(5, pb(nil).varint(1, id).varint(2, uint64(len(strs)-1)))
			}
			loc = loc.bytes(4, pb(nil).varint(1, id).varint(2, 42))
		}
		out = out.bytes(4, loc)
	}
	out = append(out, fns...)
	for _, s := range strs {
		out = out.bytes(6, []byte(s))
	}
	out = out.varint(12, 10_000_000) // period: a field the reader skips
	var gz bytes.Buffer
	zw := gzip.NewWriter(&gz)
	zw.Write(out)
	zw.Close()
	return gz.Bytes()
}

// finished returns a plane that holds prof as its finished CPU profile.
func finished(prof []byte) *World {
	ww := &World{done: true, stopped: make(chan struct{})}
	ww.prof.Write(prof)
	close(ww.stopped)
	return ww
}

func rowByName(t *testing.T, rep *Report, name string) ReportRow {
	t.Helper()
	for _, r := range rep.Rows {
		if r.Component == name {
			return r
		}
	}
	t.Fatalf("no row %q in %+v", name, rep.Rows)
	return ReportRow{}
}

func TestBucketsHandBuiltProfile(t *testing.T) {
	locs := [][]string{
		0: {"runtime.mallocgc"},
		1: {"cafmpi/internal/fabric.(*Layer).Send"},
		// fabric inlined into mpi: the first line is the innermost frame.
		2: {"cafmpi/internal/fabric.min64", "cafmpi/internal/mpi.(*epoch).flushTarget"},
		3: {"cafmpi/internal/sim.(*World).Run.func1"},
		4: {"runtime.gcBgMarkWorker"},
		5: {"cafmpi/caf.(*Image).Put"},
		6: {"cafmpi/internal/hpcc.(*raRouter).run"},
		7: {"cafmpi/internal/obs/critpath.walk"},
	}
	samples := []handSample{
		{[]int{0, 1, 3}, 3}, // allocation under fabric → fabric
		{[]int{2, 3}, 4},    // inlined fabric frame → fabric, not mpi
		{[]int{4}, 1},       // no cafmpi frame → go runtime
		{[]int{5, 6, 3}, 5}, // the caf facade is passed over → app
		{[]int{7, 3}, 2},    // obs/... → instrumentation
		{[]int{3}, 1},       // sim
	}
	virt := map[string]int64{"compute": 250, "match": 100, "o_overhead": 50}
	rep := finished(handProfile(locs, samples)).Analyze(virt, 1000)
	if rep.Err != "" {
		t.Fatal(rep.Err)
	}
	if rep.Samples != 16 || len(rep.Rows) != len(components) {
		t.Fatalf("samples = %d, rows = %d; want 16, %d", rep.Samples, len(rep.Rows), len(components))
	}
	want := map[string]float64{"fabric": 7.0 / 16, "app": 5.0 / 16,
		"instrumentation": 2.0 / 16, "go runtime": 1.0 / 16, "sim": 1.0 / 16}
	var sum float64
	for _, r := range rep.Rows {
		if r.HostShare != want[r.Component] {
			t.Errorf("%s: host share %v, want %v", r.Component, r.HostShare, want[r.Component])
		}
		sum += r.HostShare
	}
	if sum != 1 {
		t.Errorf("host shares sum to %v, want 1", sum)
	}
	if r := rowByName(t, rep, "app"); r.VirtShare != 0.25 || r.Divergence != 5.0/16-0.25 {
		t.Errorf("app row %+v: want virt 0.25", r)
	}
	if r := rowByName(t, rep, "fabric"); r.VirtShare != 0.15 {
		t.Errorf("fabric row %+v: want virt 0.15", r)
	}
	for i := 1; i < len(rep.Rows); i++ {
		if rep.Rows[i].Divergence > rep.Rows[i-1].Divergence {
			t.Fatalf("rows not ranked by divergence: %+v", rep.Rows)
		}
	}
	txt := rep.Text()
	for _, s := range []string{"16 CPU samples", "fabric", "divergence"} {
		if !strings.Contains(txt, s) {
			t.Errorf("report text missing %q:\n%s", s, txt)
		}
	}
}

func TestZeroSamplesClaimNoShares(t *testing.T) {
	rep := finished(handProfile(nil, nil)).Analyze(map[string]int64{"compute": 1}, 1)
	if rep.Err != "" || rep.Samples != 0 {
		t.Fatalf("err %q, samples %d; want none", rep.Err, rep.Samples)
	}
	for _, r := range rep.Rows {
		if r.HostShare != 0 || math.IsNaN(r.Divergence) {
			t.Errorf("row %+v claims a share from zero samples", r)
		}
	}
	if txt := rep.Text(); strings.Contains(txt, "NaN") {
		t.Errorf("NaN in report:\n%s", txt)
	}
}

func TestMalformedProfileIsAnError(t *testing.T) {
	for _, prof := range [][]byte{nil, []byte("not gzip"), handProfile(nil, nil)[:12]} {
		if rep := finished(prof).Analyze(nil, 0); rep.Err == "" || len(rep.Rows) != 0 {
			t.Errorf("%q: err %q, %d rows; want an error and no rows", prof, rep.Err, len(rep.Rows))
		}
	}
}

// TestEveryVirtualComponentHasOneRow: the virtual column maps each critpath
// component onto exactly one row.
func TestEveryVirtualComponentHasOneRow(t *testing.T) {
	for c := obs.Component(0); c < obs.NumComponents; c++ {
		n := 0
		for _, row := range components {
			for _, v := range row.virt {
				if v == c.String() {
					n++
				}
			}
		}
		if n != 1 {
			t.Errorf("critpath component %s is in %d rows, want 1", c, n)
		}
	}
}

func TestRowOf(t *testing.T) {
	for fn, want := range map[string]string{
		"cafmpi/internal/obs/critpath.Analyze":           "instrumentation",
		"cafmpi/internal/sanitizer.(*Image).access":      "instrumentation",
		"cafmpi/internal/cgpop.Run.func2":                "app",
		"cafmpi/internal/rtmpi.(*S).PollUntil":           "rtmpi",
		"cafmpi/internal/sim.sortSlice[...]":             "sim",
		"cafmpi/internal/faults.(*State).OnSend":         "",
		"cafmpi/caf.RunWorld":                            "",
		"runtime.mallocgc":                               "",
		"main.main.func1":                                "",
		"cafmpi/internal/fabric.(*Endpoint).Block.func1": "fabric",
	} {
		got := ""
		if r := rowOf(fn); r >= 0 {
			got = components[r].name
		}
		if got != want {
			t.Errorf("rowOf(%q) = %q, want %q", fn, got, want)
		}
	}
}

// TestBusyProfile: two planes at once on two worlds. The second cannot take
// the process's one CPU profile, says so, and reports no shares; stopping
// it leaves the first plane's profile running.
func TestBusyProfile(t *testing.T) {
	first, second := Enable(sim.NewWorld(1)), Enable(sim.NewWorld(1))
	defer first.Finish()
	if first.profErr != nil {
		t.Skipf("a CPU profile is already running: %v", first.profErr)
	}
	rep2 := second.Analyze(nil, 0)
	if !strings.Contains(rep2.Err, "cpu profile not taken") || len(rep2.Rows) != 0 || rep2.Samples != 0 {
		t.Fatalf("busy plane: err %q, %d rows, %d samples; want the error and no rows", rep2.Err, len(rep2.Rows), rep2.Samples)
	}
	if !strings.Contains(rep2.Text(), "no host shares") || second.CPUProfile() != nil {
		t.Fatalf("busy plane printed shares or kept a profile:\n%s", rep2.Text())
	}
	rep1 := first.Analyze(nil, 0)
	if rep1.Err != "" || len(first.CPUProfile()) == 0 || len(rep1.Rows) != len(components) {
		t.Fatalf("first plane: err %q, %d profile bytes, %d rows", rep1.Err, len(first.CPUProfile()), len(rep1.Rows))
	}
}
