package main

import (
	"fmt"
	"math/rand"
	"runtime"
	"time"

	"cafmpi/caf"
	"cafmpi/internal/cgpop"
	"cafmpi/internal/core"
	"cafmpi/internal/fabric"
	"cafmpi/internal/gasnet"
	"cafmpi/internal/hpcc"
	"cafmpi/internal/mpi"
	"cafmpi/internal/rtgasnet"
	"cafmpi/internal/rtmpi"
	"cafmpi/internal/sim"
)

// Layer probes time calls into each module's exported API from outside, in
// small sim.NewWorld jobs: host nanoseconds and process-wide mallocs per
// operation as seen by image 0. They run in children at GOMAXPROCS=1, where
// host time repeats best and where (ns/op x traced count) bounds the share of
// serial_host_s an operation can account for.

// probeSizes scales the probes: full sizes for the benchmark, small ones for
// the package tests. Metric names keep the full-size suffix either way.
type probeSizes struct {
	div                 int // divides every iteration count
	large, medium, tiny int // stand-ins for P=1024, 256 and 64
}

var (
	fullProbes  = probeSizes{div: 1, large: 1024, medium: 256, tiny: 64}
	smokeProbes = probeSizes{div: 50, large: 32, medium: 16, tiny: 8}
)

func (s probeSizes) iters(n int) int { return max(n/s.div, 3) }

// probeReport is what one probe batch prints.
type probeReport struct {
	Metrics   map[string]metric `json:"metrics"`
	Attempted int               `json:"attempted"`
	Failed    []string          `json:"failed,omitempty"`
}

type probeSet struct {
	sizes  probeSizes
	rng    *rand.Rand
	fusion *fabric.Params
	report probeReport
}

func (ps *probeSet) set(name string, v float64, unit string) {
	ps.report.Metrics[name] = metric{Value: v, Unit: unit}
}

// payload returns n seeded bytes.
func (ps *probeSet) payload(n int) []byte {
	b := make([]byte, n)
	ps.rng.Read(b)
	return b
}

// try runs one probe as one attempted operation.
func (ps *probeSet) try(name string, probe func() error) {
	ps.report.Attempted++
	if err := probe(); err != nil {
		ps.report.Failed = append(ps.report.Failed, fmt.Sprintf("%s: %v", name, err))
	}
}

// probeBatches lists the probe batches, one per layer, in the order the
// traced run takes them. Each runs in a child of its own: worlds of 1024
// images leave a heap behind that slows the next world's allocations.
var probeBatches = []struct {
	layer string
	run   func(*probeSet)
}{
	{"sim", (*probeSet).simProbes},
	{"fabric", (*probeSet).fabricProbes},
	{"mpi", (*probeSet).mpiProbes},
	{"gasnet", (*probeSet).gasnetProbes},
	{"rtmpi", func(ps *probeSet) { ps.rtProbes("rtmpi", newRTMPI) }},
	{"rtgasnet", func(ps *probeSet) { ps.rtProbes("rtgasnet", newRTGASNet) }},
	{"core.mpi", func(ps *probeSet) { ps.coreProbes(caf.MPI, "rtmpi") }},
	{"core.gasnet", func(ps *probeSet) { ps.coreProbes(caf.GASNet, "rtgasnet") }},
	{"kernels", (*probeSet).kernelProbes},
}

// runProbes runs one layer's probe batch.
func runProbes(layer string, seed int64, smoke bool) probeReport {
	ps := &probeSet{
		sizes:  fullProbes,
		rng:    rand.New(rand.NewSource(seed)),
		fusion: fabric.Platform("fusion"),
		report: probeReport{Metrics: make(map[string]metric)},
	}
	if smoke {
		ps.sizes = smokeProbes
	}
	for _, b := range probeBatches {
		if b.layer == layer {
			b.run(ps)
			return ps.report
		}
	}
	ps.try(layer, func() error { return fmt.Errorf("no such probe batch") })
	return ps.report
}

// procs runs body on every image of a bare n-image world over params.
func procs(n int, params *fabric.Params, body func(p *sim.Proc, net *fabric.Net) error) error {
	return sim.NewWorld(n).Run(func(p *sim.Proc) error {
		return body(p, fabric.AttachNet(p.World(), params))
	})
}

func loopN(n int, op func() error) error {
	for i := 0; i < n; i++ {
		if err := op(); err != nil {
			return err
		}
	}
	return nil
}

// pacer times operations on one image of a probe job. Every image runs the
// same paced loops, so images that pair up inside an operation stay in step;
// only image 0 reads the clock and records. The first error sticks: later
// steps are skipped and err reports it when the image returns.
type pacer struct {
	ps   *probeSet
	rank int
	err  error
}

func (ps *probeSet) pacer(rank int) *pacer { return &pacer{ps: ps, rank: rank} }

// warmup is how many untimed iterations precede n timed ones.
func warmup(n int) int { return n/10 + 1 }

// time runs op warmup(n) times and then n more; on image 0 it records the
// host nanoseconds per timed iteration as metric name (unless name is
// empty) and returns them with the process-wide mallocs per iteration.
func (pc *pacer) time(name string, n int, op func() error) (ns, allocs float64) {
	if pc.do(func() error { return loopN(warmup(n), op) }) != nil {
		return 0, 0
	}
	var m0, m1 runtime.MemStats
	var t0 time.Time
	if pc.rank == 0 {
		runtime.ReadMemStats(&m0)
		t0 = hostNow()
	}
	if pc.do(func() error { return loopN(n, op) }) != nil || pc.rank != 0 {
		return 0, 0
	}
	ns = float64(hostNow().Sub(t0).Nanoseconds()) / float64(n)
	runtime.ReadMemStats(&m1)
	allocs = float64(m1.Mallocs-m0.Mallocs) / float64(n)
	if name != "" {
		pc.ps.set(name, ns, "ns")
	}
	return ns, allocs
}

// do runs one untimed step unless an earlier step failed.
func (pc *pacer) do(step func() error) error {
	if pc.err == nil {
		pc.err = step()
	}
	return pc.err
}

// onRank0 wraps an operation only image 0 performs, so the paced loop can
// still run on every image.
func onRank0(rank int, op func() error) func() error {
	if rank == 0 {
		return op
	}
	return func() error { return nil }
}

// ---- sim ----

// spawn times NewWorld(n) plus a Run of an empty body, in host nanoseconds.
func spawn(n int) (float64, error) {
	var samples []float64
	for i := 0; i < 5; i++ {
		t0 := hostNow()
		if err := sim.NewWorld(n).Run(func(*sim.Proc) error { return nil }); err != nil {
			return 0, err
		}
		samples = append(samples, float64(hostNow().Sub(t0).Nanoseconds()))
	}
	return median(samples), nil
}

func (ps *probeSet) simProbes() {
	ps.try("sim.spawn", func() error {
		ns, err := spawn(ps.sizes.large)
		ps.set("sim.spawn_us_per_proc", ns/1e3/float64(ps.sizes.large), "us")
		return err
	})
}

// ---- fabric ----

var matchAny = func(*fabric.Message) bool { return true }

// recvSpec blocks until a message eligible under spec is queued and takes it.
func recvSpec(ep *fabric.Endpoint, spec *fabric.MatchSpec) *fabric.Message {
	for {
		seq := ep.Seq()
		if m, _ := ep.TryRecvSpec(spec); m != nil {
			return m
		}
		ep.WaitActivity(seq)
	}
}

func exactSpec(src int) fabric.MatchSpec {
	return fabric.MatchSpec{Classes: fabric.AllClasses, Src: src, Before: fabric.NoTimeGate}
}

func (ps *probeSet) fabricProbes() {
	ps.try("fabric.sendrecv", ps.fabricSendRecv)
	for _, c := range []struct {
		name     string
		p        int
		wildcard bool
	}{
		{"fabric.exact_take_ns.p8", 8, false},
		{"fabric.exact_take_ns.p1024", ps.sizes.large, false},
		{"fabric.wildcard_take_ns.p8", 8, true},
		{"fabric.wildcard_take_ns.p1024", ps.sizes.large, true},
	} {
		ps.try(c.name, func() error { return ps.fabricTake(c.name, c.p, c.wildcard) })
	}
	ps.try("fabric.send", ps.fabricSend)
}

// fabricSendRecv is a P=2 round trip with exact-source receives.
func (ps *probeSet) fabricSendRecv() error {
	n := ps.sizes.iters(100000)
	payload := ps.payload(32)
	return procs(2, ps.fusion, func(p *sim.Proc, net *fabric.Net) error {
		l := net.Layer("probe")
		ep, peer := l.Endpoint(p.ID()), 1-p.ID()
		spec := exactSpec(peer)
		send := func() error {
			m := fabric.NewMessage()
			m.Dst, m.Tag, m.Data = peer, 1, payload
			return l.Send(p, m)
		}
		recv := func() error {
			m := recvSpec(ep, &spec)
			l.Absorb(p, m, 0)
			m.Release()
			return nil
		}
		first, second := send, recv
		if p.ID() == 1 {
			first, second = recv, send
		}
		pc := ps.pacer(p.ID())
		_, allocs := pc.time("fabric.sendrecv_ns", n, func() error {
			if err := first(); err != nil {
				return err
			}
			return second()
		})
		if p.ID() == 0 {
			ps.set("fabric.sendrecv_allocs", allocs, "count")
		}
		return pc.err
	})
}

// fabricTake has ranks 1..7 queue 32 messages each at rank 0 of a P-image
// world; once all 224 are queued, rank 0 drains them — by exact source, or
// with the wildcard Endpoint.Recv — and the drain alone is timed.
func (ps *probeSet) fabricTake(name string, worldSize int, wildcard bool) error {
	const (
		senders = 7
		perSrc  = 32
		queued  = senders * perSrc
	)
	rounds := ps.sizes.iters(300)
	return procs(worldSize, ps.fusion, func(p *sim.Proc, net *fabric.Net) error {
		if p.ID() > senders {
			return nil
		}
		l := net.Layer("probe")
		ep := l.Endpoint(p.ID())
		send := func(dst, tag int) error {
			m := fabric.NewMessage()
			m.Dst, m.Tag = dst, tag
			return l.Send(p, m)
		}
		if p.ID() != 0 {
			goAhead := exactSpec(0)
			return loopN(rounds, func() error {
				for k := 0; k < perSrc; k++ {
					if err := send(0, 1); err != nil {
						return err
					}
				}
				m := recvSpec(ep, &goAhead)
				l.Absorb(p, m, 0)
				m.Release()
				return nil
			})
		}
		specs := make([]fabric.MatchSpec, senders+1)
		for s := range specs {
			specs[s] = exactSpec(s)
		}
		taken := make([]*fabric.Message, 0, queued)
		var total time.Duration
		failed := loopN(rounds, func() error {
			for {
				seq := ep.Seq()
				if ep.QueueLen() >= queued {
					break
				}
				ep.WaitActivity(seq)
			}
			taken = taken[:0]
			t0 := hostNow()
			if wildcard {
				for k := 0; k < queued; k++ {
					taken = append(taken, ep.Recv(matchAny))
				}
			} else {
				for s := 1; s <= senders; s++ {
					for k := 0; k < perSrc; k++ {
						m, _ := ep.TryRecvSpec(&specs[s])
						if m == nil {
							return fmt.Errorf("source %d: message %d of %d not queued", s, k, perSrc)
						}
						taken = append(taken, m)
					}
				}
			}
			total += hostNow().Sub(t0)
			for _, m := range taken {
				l.Absorb(p, m, 0)
				m.Release()
			}
			for s := 1; s <= senders; s++ {
				if err := send(s, 99); err != nil {
					return err
				}
			}
			return nil
		})
		ps.set(name, float64(total.Nanoseconds())/float64(rounds*queued), "ns")
		return failed
	})
}

// fabricSend times rank 0 injecting 8-byte messages round-robin at every
// other image of a large world. Nobody receives them: this is the inject
// path alone, with no waiter to wake.
func (ps *probeSet) fabricSend() error {
	worldSize := ps.sizes.large
	perDst := ps.sizes.iters(32)
	payload := ps.payload(8)
	return procs(worldSize, ps.fusion, func(p *sim.Proc, net *fabric.Net) error {
		if p.ID() != 0 {
			return nil
		}
		l := net.Layer("probe")
		t0 := hostNow()
		for k := 0; k < perDst; k++ {
			for dst := 1; dst < worldSize; dst++ {
				m := fabric.NewMessage()
				m.Dst, m.Tag, m.Data = dst, 1, payload
				if err := l.Send(p, m); err != nil {
					return err
				}
			}
		}
		ns := float64(hostNow().Sub(t0).Nanoseconds()) / float64(perDst*(worldSize-1))
		ps.set("fabric.send_ns.p1024", ns, "ns")
		return nil
	})
}

// ---- mpi ----

// mpiProcs runs body on every rank of a bare MPI job (mpi.Init on a fresh
// fabric) and finalizes the library afterwards.
func mpiProcs(n int, params *fabric.Params, body func(c *mpi.Comm) error) error {
	return procs(n, params, func(p *sim.Proc, net *fabric.Net) error {
		env := mpi.Init(p, net)
		defer env.Finalize()
		return body(env.CommWorld())
	})
}

func (ps *probeSet) mpiProbes() {
	ps.try("mpi.p2p", ps.mpiP2P)
	ps.try("mpi.rma", ps.mpiRMA)
	for _, c := range []struct {
		name     string
		p        int
		platform string
	}{
		{"mpi.flushall_ns.p8", 8, "fusion"},
		{"mpi.flushall_ns.p1024", ps.sizes.large, "fusion"},
		{"mpi.flushall_sparse_ns.p1024", ps.sizes.large, "fusion-sparse"},
	} {
		ps.try(c.name, func() error { return ps.mpiFlushAll(c.name, c.p, c.platform) })
	}
	ps.try("mpi.collectives", ps.mpiCollectives)
}

// mpiP2P: 8-byte eager and 64 KiB rendezvous round trips, and the idle
// progress pass (a probe that finds nothing).
func (ps *probeSet) mpiP2P() error {
	small, big := ps.payload(8), ps.payload(64<<10)
	return mpiProcs(2, ps.fusion, func(c *mpi.Comm) error {
		rank, peer := c.Rank(), 1-c.Rank()
		roundTrip := func(buf []byte) func() error {
			in := make([]byte, len(buf))
			send := func() error { return c.Send(buf, peer, 1) }
			recv := func() error {
				_, err := c.Recv(in, peer, 1)
				return err
			}
			first, second := send, recv
			if rank == 1 {
				first, second = recv, send
			}
			return func() error {
				if err := first(); err != nil {
					return err
				}
				return second()
			}
		}
		pc := ps.pacer(rank)
		_, allocs := pc.time("mpi.sendrecv_ns", ps.sizes.iters(50000), roundTrip(small))
		if rank == 0 {
			ps.set("mpi.sendrecv_allocs", allocs, "count")
		}
		pc.time("mpi.sendrecv_64k_ns", ps.sizes.iters(5000), roundTrip(big))
		pc.time("mpi.iprobe_empty_ns", ps.sizes.iters(200000), onRank0(rank, func() error {
			found, _, _, _, err := c.IprobeAny()
			if found {
				return fmt.Errorf("idle probe matched a message")
			}
			return err
		}))
		return pc.do(c.Barrier)
	})
}

// mpiRMA: a 1 KiB Put or Get followed by a Flush of the target, inside a
// lock_all epoch as CAF-MPI holds it.
func (ps *probeSet) mpiRMA() error {
	buf := ps.payload(1 << 10)
	return mpiProcs(2, ps.fusion, func(c *mpi.Comm) error {
		rank := c.Rank()
		win, err := mpi.WinAllocate(c, len(buf))
		if err != nil {
			return err
		}
		if err = win.LockAll(); err != nil {
			return err
		}
		pc := ps.pacer(rank)
		n := ps.sizes.iters(50000)
		pc.time("mpi.put_flush_ns", n, onRank0(rank, func() error {
			if err := win.Put(buf, 1, 0); err != nil {
				return err
			}
			return win.Flush(1)
		}))
		pc.time("mpi.get_flush_ns", n, onRank0(rank, func() error {
			if err := win.Get(buf, 1, 0); err != nil {
				return err
			}
			return win.Flush(1)
		}))
		pc.do(c.Barrier)
		pc.do(win.UnlockAll)
		return pc.do(win.Free)
	})
}

// mpiFlushAll: rank 0 puts 8 bytes to one peer and calls FlushAll, in a
// window spanning the whole world — RandomAccess's release fence.
func (ps *probeSet) mpiFlushAll(name string, worldSize int, platform string) error {
	params := fabric.Platform(platform)
	if params == nil {
		return fmt.Errorf("no platform preset %q", platform)
	}
	buf := ps.payload(8)
	return mpiProcs(worldSize, params, func(c *mpi.Comm) error {
		rank := c.Rank()
		win, err := mpi.WinAllocate(c, 64)
		if err != nil {
			return err
		}
		if err = win.LockAll(); err != nil {
			return err
		}
		pc := ps.pacer(rank)
		pc.time(name, ps.sizes.iters(5000), onRank0(rank, func() error {
			if err := win.Put(buf, 1, 0); err != nil {
				return err
			}
			return win.FlushAll()
		}))
		pc.do(c.Barrier)
		pc.do(win.UnlockAll)
		return pc.do(win.Free)
	})
}

func (ps *probeSet) mpiCollectives() error {
	failed := mpiProcs(ps.sizes.medium, ps.fusion, func(c *mpi.Comm) error {
		pc := ps.pacer(c.Rank())
		pc.time("mpi.barrier_ns.p256", ps.sizes.iters(40), c.Barrier)
		in, out := mpi.F64Bytes([]float64{float64(c.Rank())}), make([]byte, 8)
		pc.time("mpi.allreduce_ns.p256", ps.sizes.iters(40), func() error {
			return c.Allreduce(in, out, mpi.Float64, mpi.OpSum)
		})
		return pc.err
	})
	if failed != nil {
		return failed
	}
	const block = 1 << 10
	n := ps.sizes.tiny
	send := ps.payload(n * block)
	return mpiProcs(n, ps.fusion, func(c *mpi.Comm) error {
		recv := make([]byte, n*block)
		pc := ps.pacer(c.Rank())
		pc.time("mpi.alltoall_ns.p64", ps.sizes.iters(20), func() error {
			return c.Alltoall(send, recv, mpi.Byte)
		})
		return pc.err
	})
}

// ---- gasnet ----

const (
	hPing gasnet.HandlerID = gasnet.MinHandlerID + iota
	hPong
	hPingMedium
	hDone
)

func (ps *probeSet) gasnetProbes() {
	ps.try("gasnet.p2p", ps.gasnetP2P)
	ps.try("gasnet.barrier", func() error {
		return procs(ps.sizes.medium, ps.fusion, func(p *sim.Proc, net *fabric.Net) error {
			ep, err := gasnet.Attach(p, net, 0)
			if err != nil {
				return err
			}
			pc := ps.pacer(p.ID())
			pc.time("gasnet.barrier_ns.p256", ps.sizes.iters(40), ep.Barrier)
			return pc.err
		})
	})
}

// gasnetP2P: image 0 drives AM round trips (Short + ReplyShort, and a
// 1 KiB Medium answered by a Short), explicit-handle puts and gets, and
// empty polls against image 1, which only polls.
func (ps *probeSet) gasnetP2P() error {
	buf := ps.payload(1 << 10)
	return procs(2, ps.fusion, func(p *sim.Proc, net *fabric.Net) error {
		// Handlers run on the owning image's goroutine, inside its polls.
		var pongs, done int
		reply := func(tk *gasnet.Token, _ []uint64, _ []byte) {
			if err := tk.ReplyShort(hPong); err != nil {
				panic(err)
			}
		}
		ep, err := gasnet.Attach(p, net, len(buf),
			gasnet.HandlerEntry{ID: hPing, Fn: reply},
			gasnet.HandlerEntry{ID: hPingMedium, Fn: reply},
			gasnet.HandlerEntry{ID: hPong, Fn: func(*gasnet.Token, []uint64, []byte) { pongs++ }},
			gasnet.HandlerEntry{ID: hDone, Fn: func(*gasnet.Token, []uint64, []byte) { done++ }},
		)
		if err != nil {
			return err
		}
		pc := ps.pacer(p.ID())
		if p.ID() == 1 {
			pc.do(func() error { return ep.PollUntil(func() bool { return done > 0 }) })
			return pc.do(ep.Barrier)
		}
		want := 0
		awaitPong := func() error {
			want++
			return ep.PollUntil(func() bool { return pongs >= want })
		}
		_, allocs := pc.time("gasnet.am_roundtrip_ns", ps.sizes.iters(50000), func() error {
			if err := ep.AMRequestShort(1, hPing); err != nil {
				return err
			}
			return awaitPong()
		})
		ps.set("gasnet.am_roundtrip_allocs", allocs, "count")
		pc.time("gasnet.am_medium_ns", ps.sizes.iters(50000), func() error {
			if err := ep.AMRequestMedium(1, hPingMedium, buf); err != nil {
				return err
			}
			return awaitPong()
		})
		pc.time("gasnet.put_nb_ns", ps.sizes.iters(50000), func() error {
			h, err := ep.PutNB(1, 0, buf)
			if err == nil {
				ep.SyncNB(h)
			}
			return err
		})
		pc.time("gasnet.get_nb_ns", ps.sizes.iters(50000), func() error {
			h, err := ep.GetNB(1, 0, buf)
			if err == nil {
				ep.SyncNB(h)
			}
			return err
		})
		pc.time("gasnet.poll_empty_ns", ps.sizes.iters(200000), func() error {
			ep.Poll()
			return nil
		})
		pc.do(func() error { return ep.AMRequestShort(1, hDone) })
		return pc.do(ep.Barrier)
	})
}

// ---- rtmpi / rtgasnet ----

// newRT builds a bare substrate binding with the probe's own AM dispatcher
// in place of the core runtime's.
type newRT func(p *sim.Proc, net *fabric.Net, deliver core.DeliverFunc) (core.Substrate, error)

func newRTMPI(p *sim.Proc, net *fabric.Net, deliver core.DeliverFunc) (core.Substrate, error) {
	return rtmpi.New(p, net, deliver, rtmpi.Options{})
}

func newRTGASNet(p *sim.Proc, net *fabric.Net, deliver core.DeliverFunc) (core.Substrate, error) {
	return rtgasnet.New(p, net, deliver, rtgasnet.Options{})
}

// rtProbes drives a binding the way core's events and copies do: an event
// round trip is release fence + runtime AM one way and a polled wait the
// other; am_send streams AMs in batches of amBatch with one acknowledgement
// per batch; the put is deferred and completed by the release fence.
func (ps *probeSet) rtProbes(layer string, mk newRT) {
	const amBatch = 64
	buf := ps.payload(1 << 10)
	ps.try(layer+".p2p", func() error {
		return procs(2, ps.fusion, func(p *sim.Proc, net *fabric.Net) error {
			rank, peer := p.ID(), 1-p.ID()
			got, want := 0, 0 // AMs delivered to, and awaited by, this image
			sub, err := mk(p, net, func(int, uint8, []uint64, []byte) { got++ })
			if err != nil {
				return err
			}
			seg, err := sub.AllocSegment(sub.WorldTeam(), len(buf), 1)
			if err != nil {
				return err
			}
			args := []uint64{1}
			am := func() error { return sub.AMSend(peer, 1, args, nil) }
			notify := func() error {
				if err := sub.ReleaseFence(); err != nil {
					return err
				}
				return am()
			}
			await := func(n int) func() error {
				return func() error {
					want += n
					return sub.PollUntil(func() bool { return got >= want })
				}
			}
			// Image 0 leads each exchange and image 1 answers it.
			both := func(lead, answer func() error) func() error {
				if rank == 1 {
					lead, answer = answer, lead
				}
				return func() error {
					if err := lead(); err != nil {
						return err
					}
					return answer()
				}
			}
			// Image 0 streams a batch of AMs; image 1 acknowledges it.
			batch := func() error {
				if err := loopN(amBatch, am); err != nil {
					return err
				}
				return await(1)()
			}
			if rank == 1 {
				batch = func() error {
					if err := await(amBatch)(); err != nil {
						return err
					}
					return am()
				}
			}

			pc := ps.pacer(rank)
			_, allocs := pc.time(layer+".event_roundtrip_ns", ps.sizes.iters(50000), both(notify, await(1)))
			perBatch, _ := pc.time("", ps.sizes.iters(1000), batch)
			pc.time(layer+".put_deferred_fence_ns", ps.sizes.iters(50000), onRank0(rank, func() error {
				if err := sub.PutDeferred(seg, 1, 0, buf); err != nil {
					return err
				}
				return sub.ReleaseFence()
			}))
			pc.time(layer+".get_ns", ps.sizes.iters(50000), onRank0(rank, func() error {
				return sub.Get(seg, 1, 0, buf)
			}))
			if rank == 0 && pc.err == nil {
				ps.set(layer+".event_roundtrip_allocs", allocs, "count")
				ps.set(layer+".am_send_ns", perBatch/amBatch, "ns")
			}
			// Image 1 polls until image 0 has finished its one-sided loops.
			pc.do(both(notify, await(1)))
			return pc.do(func() error { return sub.FreeSegment(seg) })
		})
	})
}

// ---- core, through the caf facade ----

const fnNoop = 1 // shipped-function id for the spawn probe

func (ps *probeSet) coreProbes(substrate caf.Substrate, rt string) {
	suffix := "." + string(substrate)
	cfg := caf.Config{Substrate: substrate}
	ps.try("core.p2p"+suffix, func() error { return ps.coreP2P(cfg, suffix) })
	ps.try("core.collectives"+suffix, func() error { return ps.coreCollectives(cfg, suffix) })
	ps.try("core.barrier"+suffix, func() error { return ps.coreLarge(cfg, suffix, rt) })
}

// coreLarge boots the large world once. The binding's boot cost is the host
// time from the Run call until image 0 leaves the first world barrier, minus
// what sim alone takes to spawn that many images; world barriers are then
// timed in the same job.
func (ps *probeSet) coreLarge(cfg caf.Config, suffix, rt string) error {
	n := ps.sizes.large
	spawnNS, err := spawn(n)
	if err != nil {
		return err
	}
	t0 := hostNow()
	return caf.Run(n, cfg, func(im *caf.Image) error {
		pc := ps.pacer(im.ID())
		if pc.do(im.World().Barrier) == nil && im.ID() == 0 {
			bootNS := float64(hostNow().Sub(t0).Nanoseconds())
			ps.set(rt+".boot_us_per_image.p1024", (bootNS-spawnNS)/1e3/float64(n), "us")
		}
		pc.time("core.barrier_ns.p1024"+suffix, ps.sizes.iters(2), im.World().Barrier)
		return pc.err
	})
}

// coreP2P: a 1 KiB asynchronous copy to the peer with no events and the
// cofence that completes it, timed apart; and a finish block in which image
// 0 ships one function to image 1.
func (ps *probeSet) coreP2P(cfg caf.Config, suffix string) error {
	const size = 1 << 10
	return caf.Run(2, cfg, func(im *caf.Image) error {
		rank, world := im.ID(), im.World()
		co, err := im.AllocCoarray(world, size)
		if err != nil {
			return err
		}
		if err = im.RegisterFunc(fnNoop, func(*caf.Image, []byte) {}); err != nil {
			return err
		}
		pc := ps.pacer(rank)
		var copyNS, fenceNS time.Duration
		n := ps.sizes.iters(50000)
		pc.time("", n, onRank0(rank, func() error {
			t0 := hostNow()
			if err := im.CopyAsync(co, 1, 0, co, 0, 0, size, caf.AsyncOpts{}); err != nil {
				return err
			}
			t1 := hostNow()
			if err := im.Cofence(); err != nil {
				return err
			}
			copyNS += t1.Sub(t0)
			fenceNS += hostNow().Sub(t1)
			return nil
		}))
		if rank == 0 && pc.err == nil {
			// The sums cover the warm-up iterations too.
			ops := float64(warmup(n) + n)
			ps.set("core.copy_async_ns"+suffix, float64(copyNS.Nanoseconds())/ops, "ns")
			ps.set("core.cofence_ns"+suffix, float64(fenceNS.Nanoseconds())/ops, "ns")
		}
		pc.time("core.spawn_finish_ns"+suffix, ps.sizes.iters(20000), func() error {
			return im.Finish(world, func() error {
				if rank == 0 {
					return im.Spawn(world, 1, fnNoop, nil)
				}
				return nil
			})
		})
		pc.do(world.Barrier)
		return pc.do(co.Free)
	})
}

func (ps *probeSet) coreCollectives(cfg caf.Config, suffix string) error {
	n := ps.sizes.medium
	const gatherBlock, a2aBlock = 64, 256
	mine, blocks := ps.payload(gatherBlock), ps.payload(n*a2aBlock)
	return caf.Run(n, cfg, func(im *caf.Image) error {
		world := im.World()
		gathered, recv := make([]byte, n*gatherBlock), make([]byte, n*a2aBlock)
		in, out := caf.F64Bytes([]float64{float64(im.ID())}), make([]byte, 8)
		pc := ps.pacer(im.ID())
		pc.time("core.allgather_ns.p256"+suffix, ps.sizes.iters(2), func() error { return world.Allgather(mine, gathered) })
		pc.time("core.alltoall_ns.p256"+suffix, ps.sizes.iters(2), func() error { return world.Alltoall(blocks, recv) })
		pc.time("core.allreduce_ns.p256"+suffix, ps.sizes.iters(10), func() error {
			return world.Allreduce(in, out, caf.Float64, caf.OpSum)
		})
		return pc.err
	})
}

// ---- hpcc / cgpop kernels at np=1 ----

// kernelProbes run each application kernel on a single image, where it does
// no communication: the plain baseline a runtime-layer change must not move.
func (ps *probeSet) kernelProbes() {
	// single records the host nanoseconds of a one-image job per unit of
	// its work.
	single := func(name string, units int, body func(im *caf.Image) error) {
		ps.try(name, func() error {
			t0 := hostNow()
			err := caf.Run(1, caf.Config{}, body)
			ps.set(name, float64(hostNow().Sub(t0).Nanoseconds())/float64(units), "ns")
			return err
		})
	}
	raBits, fftLog, grid, iters := 18, 18, 512, 40
	if ps.sizes.div > 1 {
		raBits, fftLog, grid, iters = 10, 10, 32, 10
	}
	updates := 4 << raBits
	single("hpcc.ra_np1_ns_per_update", updates, func(im *caf.Image) error {
		_, err := hpcc.RandomAccess(im, hpcc.RAConfig{TableBits: raBits, UpdatesPerImage: updates})
		return err
	})
	single("hpcc.fft_np1_ns_per_point", 1<<fftLog, func(im *caf.Image) error {
		_, err := hpcc.FFT(im, hpcc.FFTConfig{LogSize: fftLog})
		return err
	})
	single("cgpop.np1_ns_per_cell_iter", grid*grid*iters, func(im *caf.Image) error {
		_, err := cgpop.Run(im, cgpop.Config{NX: grid, NY: grid, Iters: iters})
		return err
	})
}
