package bench

import (
	"fmt"
	"math/bits"

	"cafmpi/caf"
	"cafmpi/internal/fabric"
	"cafmpi/internal/hpcc"
	"cafmpi/internal/obs"
	"cafmpi/internal/rtmpi"
	"cafmpi/internal/trace"
)

// job runs fn as a CAF program and returns image 0's error. When the
// harness carries a Stats sink, the job runs with the obs subsystem on and
// delivers its merged snapshot, labeled by substrate and image count.
func job(o Options, platform *fabric.Params, sub caf.Substrate, n int, trc bool, fn func(*caf.Image) error) error {
	cfg := caf.Config{Substrate: sub, Platform: platform, Diag: caf.Diag{Trace: trc, Observe: o.Stats != nil}}
	w, err := caf.RunWorld(n, cfg, fn)
	if err != nil {
		return err
	}
	if o.Stats != nil {
		if ow := obs.Enabled(w); ow != nil {
			o.Stats(fmt.Sprintf("%s/np=%d", sub, n), ow.Snapshot())
		}
	}
	return nil
}

// noSRQ returns a copy of the platform with the GASNet SRQ disabled (the
// paper's CAF-GASNet-NOSRQ configuration).
func noSRQ(p *fabric.Params) *fabric.Params {
	cp := *p
	cp.GASNet.SRQ.Enabled = false
	return &cp
}

// raWorkload picks the RandomAccess problem for a sweep point.
func raWorkload(o Options) hpcc.RAConfig {
	cfg := hpcc.RAConfig{TableBits: 9, UpdatesPerImage: 2048, BatchSize: 256}
	if o.Quick {
		cfg.UpdatesPerImage = 256
		cfg.BatchSize = 64
	}
	return cfg
}

// raSweep measures GUPS for one substrate/platform across the sweep.
func raSweep(o Options, series string, platform *fabric.Params, sub caf.Substrate, ps []int) ([]Row, error) {
	var rows []Row
	for _, p := range ps {
		var gups float64
		err := job(o, platform, sub, p, false, func(im *caf.Image) error {
			res, err := hpcc.RandomAccess(im, raWorkload(o))
			if err != nil {
				return err
			}
			if im.ID() == 0 {
				gups = res.GUPS
			}
			return nil
		})
		if err != nil {
			return nil, fmt.Errorf("%s P=%d: %w", series, p, err)
		}
		rows = append(rows, Row{Series: series, X: p, Y: gups})
	}
	return rows, nil
}

func raFigure(id, title string, platform func(Options) *fabric.Params, withNoSRQ bool) Experiment {
	return Experiment{
		ID:    id,
		Title: title,
		Paper: "Fusion: CAF-GASNet leads up to 64 ranks; from 128 ranks SRQ saturation sets in (CAF-GASNet 0.36 -> 0.21 GUPS) and CAF-MPI overtakes it, while CAF-GASNet-NOSRQ tracks CAF-MPI. Edison (no SRQ): CAF-GASNet leads at every P. All series below ideal.",
		Run: func(o Options) (*Table, error) {
			o = o.withDefaults()
			pf := platform(o)
			ps := o.pSweep(4)
			t := &Table{ID: id, Title: title, XLabel: "processes", YLabel: "GUPS",
				Notes: fmt.Sprintf("platform=%s table=2^9/image updates=%d/image", pf.Name, raWorkload(o).UpdatesPerImage)}
			m, err := raSweep(o, "CAF-MPI", pf, caf.MPI, ps)
			if err != nil {
				return nil, err
			}
			g, err := raSweep(o, "CAF-GASNet", pf, caf.GASNet, ps)
			if err != nil {
				return nil, err
			}
			t.Rows = append(t.Rows, m...)
			t.Rows = append(t.Rows, g...)
			if withNoSRQ {
				ns, err := raSweep(o, "CAF-GASNet-NOSRQ", noSRQ(pf), caf.GASNet, ps)
				if err != nil {
					return nil, err
				}
				t.Rows = append(t.Rows, ns...)
			}
			t.Rows = append(t.Rows, ideal(m, "CAF-MPI", ps)...)
			return t, nil
		},
	}
}

// fftWorkload scales the transform with the image count (weak scaling, as
// HPCC runs the largest size that fits): a fixed per-image chunk of 2^12
// points (2^10 in quick mode). The layout constraint (P | n1 and P | n2)
// is satisfied since the per-image exponent exceeds log2(P) in all sweeps.
func fftWorkload(o Options, p int) hpcc.FFTConfig {
	perImage := 13
	if o.Quick {
		perImage = 10
	}
	logSize := bits.Len(uint(p-1)) + perImage
	if need := 2 * bits.Len(uint(p-1)); logSize < need {
		logSize = need
	}
	return hpcc.FFTConfig{LogSize: logSize}
}

func fftSweep(o Options, series string, platform *fabric.Params, sub caf.Substrate, ps []int) ([]Row, error) {
	var rows []Row
	for _, p := range ps {
		var gf float64
		err := job(o, platform, sub, p, false, func(im *caf.Image) error {
			res, err := hpcc.FFT(im, fftWorkload(o, p))
			if err != nil {
				return err
			}
			if im.ID() == 0 {
				gf = res.GFlops
			}
			return nil
		})
		if err != nil {
			return nil, fmt.Errorf("%s P=%d: %w", series, p, err)
		}
		rows = append(rows, Row{Series: series, X: p, Y: gf})
	}
	return rows, nil
}

func fftFigure(id, title string, platform func(Options) *fabric.Params) Experiment {
	return Experiment{
		ID:    id,
		Title: title,
		Paper: "CAF-MPI consistently outperforms CAF-GASNet (~2x at scale): MPI_ALLTOALL's pairwise exchange beats the hand-crafted put+AM all-to-all (Figure 8).",
		Run: func(o Options) (*Table, error) {
			o = o.withDefaults()
			pf := platform(o)
			ps := o.pSweep(4)
			t := &Table{ID: id, Title: title, XLabel: "processes", YLabel: "GFlop/s",
				Notes: fmt.Sprintf("platform=%s weak scaling, 2^%d points/image", pf.Name, fftWorkload(o, 1).LogSize)}
			m, err := fftSweep(o, "CAF-MPI", pf, caf.MPI, ps)
			if err != nil {
				return nil, err
			}
			g, err := fftSweep(o, "CAF-GASNet", pf, caf.GASNet, ps)
			if err != nil {
				return nil, err
			}
			t.Rows = append(t.Rows, m...)
			t.Rows = append(t.Rows, g...)
			t.Rows = append(t.Rows, ideal(m, "CAF-MPI", ps)...)
			return t, nil
		},
	}
}

// hplWorkload keeps the real arithmetic tractable while remaining
// computation-dominated.
func hplWorkload(o Options, maxP int) hpcc.HPLConfig {
	n := 1024
	if o.Quick {
		n = 512
	}
	return hpcc.HPLConfig{N: n, NB: 16}
}

func hplFigure(id, title string, platform func(Options) *fabric.Params) Experiment {
	return Experiment{
		ID:    id,
		Title: title,
		Paper: "No visible difference between CAF-MPI and CAF-GASNet: HPL is computation-bound (Figures 9/10).",
		Run: func(o Options) (*Table, error) {
			o = o.withDefaults()
			pf := platform(o)
			capP := o.MaxP
			if capP > 64 {
				capP = 64 // 1-D column blocks: N/NB owners; see DESIGN.md
			}
			oo := o
			oo.MaxP = capP
			ps := oo.pSweep(4)
			w := hplWorkload(o, capP)
			t := &Table{ID: id, Title: title, XLabel: "processes", YLabel: "TFlop/s",
				Notes: fmt.Sprintf("platform=%s N=%d NB=%d (sweep capped at %d: 1-D column distribution)", pf.Name, w.N, w.NB, capP)}
			for _, series := range []struct {
				name string
				sub  caf.Substrate
			}{{"CAF-MPI", caf.MPI}, {"CAF-GASNet", caf.GASNet}} {
				for _, p := range ps {
					var tf float64
					err := job(o, pf, series.sub, p, false, func(im *caf.Image) error {
						res, err := hpcc.HPL(im, w)
						if err != nil {
							return err
						}
						if im.ID() == 0 {
							tf = res.TFlops
						}
						return nil
					})
					if err != nil {
						return nil, fmt.Errorf("%s P=%d: %w", series.name, p, err)
					}
					t.Rows = append(t.Rows, Row{Series: series.name, X: p, Y: tf})
				}
			}
			t.Rows = append(t.Rows, ideal(t.Rows, "CAF-MPI", ps)...)
			return t, nil
		},
	}
}

// decomposition gathers world-summed per-category virtual time. It uses
// the inclusive view so a category's figure covers everything spent under
// it, even when substrate-level spans nest inside (the paper's Figures 4
// and 8 attribute whole phases, not exclusive slices).
func decomposition(im *caf.Image, cats []trace.Category) ([]float64, error) {
	in := make([]float64, len(cats))
	for i, c := range cats {
		in[i] = float64(im.Tracer().Inclusive(c)) * 1e-9
	}
	out := make([]float64, len(cats))
	if err := im.World().Allreduce(caf.F64Bytes(in), caf.F64Bytes(out), caf.Float64, caf.OpSum); err != nil {
		return nil, err
	}
	return out, nil
}

func init() {
	register(raFigure("fig3", "RandomAccess on Fusion (GUPS)", func(o Options) *fabric.Params { return fabric.Platform("fusion") }, true))
	register(Experiment{
		ID:    "fig4",
		Title: "RandomAccess time decomposition",
		Paper: "CAF-MPI burns ~200s in event_notify (MPI_WIN_FLUSH_ALL scans every rank) where CAF-GASNet spends almost none; GASNet's time sits in event_wait instead.",
		Run: func(o Options) (*Table, error) {
			o = o.withDefaults()
			p := o.MaxP
			if p > 64 {
				p = 64
			}
			if o.Quick {
				p = 32
			}
			cats := []trace.Category{trace.Computation, trace.CoarrayWrite, trace.EventWait, trace.EventNotify}
			t := &Table{ID: "fig4", Title: "RandomAccess time decomposition", XLabel: "category",
				YLabel: "aggregate seconds", Notes: fmt.Sprintf("platform=fusion P=%d", p)}
			for _, s := range []struct {
				name string
				sub  caf.Substrate
			}{{"CAF-GASNet", caf.GASNet}, {"CAF-MPI", caf.MPI}} {
				var vals []float64
				err := job(o, fabric.Platform("fusion"), s.sub, p, true, func(im *caf.Image) error {
					if _, err := hpcc.RandomAccess(im, raWorkload(o)); err != nil {
						return err
					}
					v, err := decomposition(im, cats)
					if err != nil {
						return err
					}
					if im.ID() == 0 {
						vals = v
					}
					return nil
				})
				if err != nil {
					return nil, err
				}
				for i, c := range cats {
					t.Rows = append(t.Rows, Row{Series: s.name, X: i, Label: c.String(), Y: vals[i]})
				}
			}
			return t, nil
		},
	})
	register(raFigure("fig5", "RandomAccess on Edison (GUPS)", func(o Options) *fabric.Params { return fabric.Platform("edison") }, false))
	register(fftFigure("fig6", "FFT on Fusion (GFlop/s)", func(o Options) *fabric.Params { return fabric.Platform("fusion") }))
	register(fftFigure("fig7", "FFT on Edison (GFlop/s)", func(o Options) *fabric.Params { return fabric.Platform("edison") }))
	register(Experiment{
		ID:    "fig8",
		Title: "FFT time decomposition",
		Paper: "CAF-GASNet spends ~3x longer in all-to-all than CAF-MPI (17.9s vs 6.1s on 256 Fusion cores); local computation is comparable.",
		Run: func(o Options) (*Table, error) {
			o = o.withDefaults()
			p := o.MaxP
			if p > 128 {
				p = 128 // the all-to-all gap opens at scale (SRQ + AM signal costs)
			}
			if o.Quick {
				p = 16
			}
			cats := []trace.Category{trace.Alltoall, trace.Computation}
			t := &Table{ID: "fig8", Title: "FFT time decomposition", XLabel: "category",
				YLabel: "aggregate seconds", Notes: fmt.Sprintf("platform=fusion P=%d", p)}
			for _, s := range []struct {
				name string
				sub  caf.Substrate
			}{{"CAF-GASNet", caf.GASNet}, {"CAF-MPI", caf.MPI}} {
				var vals []float64
				err := job(o, fabric.Platform("fusion"), s.sub, p, true, func(im *caf.Image) error {
					if _, err := hpcc.FFT(im, fftWorkload(o, p)); err != nil {
						return err
					}
					v, err := decomposition(im, cats)
					if err != nil {
						return err
					}
					if im.ID() == 0 {
						vals = v
					}
					return nil
				})
				if err != nil {
					return nil, err
				}
				for i, c := range cats {
					t.Rows = append(t.Rows, Row{Series: s.name, X: i, Label: c.String(), Y: vals[i]})
				}
			}
			return t, nil
		},
	})
	register(hplFigure("fig9", "HPL on Fusion (TFlop/s)", func(o Options) *fabric.Params { return fabric.Platform("fusion") }))
	register(hplFigure("fig10", "HPL on Edison (TFlop/s)", func(o Options) *fabric.Params { return fabric.Platform("edison") }))
	register(Experiment{
		ID:    "ablation-hpl2d",
		Title: "Ablation: HPL process layout — 1-D block-cyclic columns vs 2-D grid",
		Paper: "The paper's HPL port uses a 2-D block-cyclic layout; the 1-D layout runs out of column owners at N/NB processes, flattening its scaling.",
		Run: func(o Options) (*Table, error) {
			o = o.withDefaults()
			ps := o.pSweep(4)
			w := hplWorkload(o, o.MaxP)
			t := &Table{ID: "ablation-hpl2d", Title: "HPL: 1-D vs 2-D block-cyclic layout",
				XLabel: "processes", YLabel: "TFlop/s",
				Notes: fmt.Sprintf("platform=fusion N=%d NB=%d", w.N, w.NB)}
			for _, p := range ps {
				var tf1, tf2 float64
				err := job(o, fabric.Platform("fusion"), caf.MPI, p, false, func(im *caf.Image) error {
					r1, err := hpcc.HPL(im, w)
					if err != nil {
						return err
					}
					r2, err := hpcc.HPL2D(im, w)
					if err != nil {
						return err
					}
					if im.ID() == 0 {
						tf1, tf2 = r1.TFlops, r2.TFlops
					}
					return nil
				})
				if err != nil {
					return nil, fmt.Errorf("P=%d: %w", p, err)
				}
				t.Rows = append(t.Rows,
					Row{Series: "HPL 1-D columns", X: p, Y: tf1},
					Row{Series: "HPL 2-D grid", X: p, Y: tf2})
			}
			return t, nil
		},
	})
	register(Experiment{
		ID:    "ablation-events",
		Title: "Ablation: event design — ISEND/RECV vs FETCH_AND_OP/CAS (§3.4)",
		Paper: "The paper weighs both designs and ships ISEND/RECV because two-sided messaging is better tuned; the atomics design pays a remote-atomic round trip per probe.",
		Run: func(o Options) (*Table, error) {
			o = o.withDefaults()
			ps := o.pSweep(4)
			t := &Table{ID: "ablation-events", Title: "RandomAccess GUPS under the two event designs",
				XLabel: "processes", YLabel: "GUPS", Notes: "platform=fusion"}
			for _, variant := range []struct {
				name   string
				atomic bool
			}{{"CAF-MPI(isend/recv events)", false}, {"CAF-MPI(atomic events)", true}} {
				for _, p := range ps {
					var gups float64
					cfg := caf.Config{Substrate: caf.MPI, Platform: fabric.Platform("fusion"),
						MPIOptions: rtmpi.Options{AtomicEvents: variant.atomic}}
					err := caf.Run(p, cfg, func(im *caf.Image) error {
						res, err := hpcc.RandomAccess(im, raWorkload(o))
						if err != nil {
							return err
						}
						if im.ID() == 0 {
							gups = res.GUPS
						}
						return nil
					})
					if err != nil {
						return nil, err
					}
					t.Rows = append(t.Rows, Row{Series: variant.name, X: p, Y: gups})
				}
			}
			return t, nil
		},
	})
	register(Experiment{
		ID:    "ablation-rflush",
		Title: "Ablation: event_notify via FlushAll vs proposed MPI_WIN_RFLUSH (§5)",
		Paper: "Future-work claim: a request-generating flush removes the blocking per-rank completion wait from the notify path, lifting RandomAccess.",
		Run: func(o Options) (*Table, error) {
			o = o.withDefaults()
			ps := []int{8, 32, 128}
			if o.Quick {
				ps = []int{8, 32}
			}
			for len(ps) > 1 && ps[len(ps)-1] > o.MaxP*2 {
				ps = ps[:len(ps)-1]
			}
			t := &Table{ID: "ablation-rflush", Title: "RandomAccess GUPS: FlushAll vs Rflush", XLabel: "processes", YLabel: "GUPS", Notes: "platform=fusion"}
			for _, variant := range []struct {
				name   string
				rflush bool
			}{{"CAF-MPI(FlushAll)", false}, {"CAF-MPI(Rflush)", true}} {
				for _, p := range ps {
					var gups float64
					cfg := caf.Config{Substrate: caf.MPI, Platform: fabric.Platform("fusion"),
						MPIOptions: rtmpi.Options{UseRflush: variant.rflush}}
					err := caf.Run(p, cfg, func(im *caf.Image) error {
						res, err := hpcc.RandomAccess(im, raWorkload(o))
						if err != nil {
							return err
						}
						if im.ID() == 0 {
							gups = res.GUPS
						}
						return nil
					})
					if err != nil {
						return nil, err
					}
					t.Rows = append(t.Rows, Row{Series: variant.name, X: p, Y: gups})
				}
			}
			return t, nil
		},
	})
}
