// Package wallclock defines an analyzer that forbids wall-clock time in
// simulation code. The simulated machine runs on virtual time (sim.Proc
// clocks advanced deterministically); any time.Now/Since/Sleep leaking into
// runtime or application code silently couples results to host speed and
// breaks the clock-invariance goldens. Deliberate host-time use (bench
// harness wall-time reporting, watchdog timeouts) is annotated
// //caflint:allow wallclock, in the host-time plane (internal/obs/wallprof)
// as everywhere else.
package wallclock

import (
	"go/ast"

	"cafmpi/internal/analysis"
)

// Analyzer flags calls into package time that read or depend on the host
// clock. _test.go files are exempt: tests may legitimately bound host time.
var Analyzer = &analysis.Analyzer{
	Name: "wallclock",
	Doc:  "forbid wall-clock time (time.Now/Since/Sleep/Tick...) in simulation code",
	Run:  run,
}

// forbidden lists package-time functions that read or schedule against the
// host clock. Pure-value helpers (time.Duration arithmetic, ParseDuration)
// stay legal.
var forbidden = map[string]bool{
	"Now": true, "Since": true, "Until": true, "Sleep": true,
	"After": true, "AfterFunc": true, "Tick": true,
	"NewTicker": true, "NewTimer": true,
}

func run(pass *analysis.Pass) error {
	for _, f := range pass.Files {
		if analysis.IsTestFile(pass.Fset, f.Pos()) {
			continue
		}
		ast.Inspect(f, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			fn := analysis.CalleeFunc(pass.TypesInfo, call)
			if fn == nil || fn.Pkg() == nil || fn.Pkg().Path() != "time" {
				return true
			}
			if forbidden[fn.Name()] {
				pass.Reportf(call.Pos(),
					"wall-clock time.%s in simulation code: use the virtual clock (sim.Proc.Now/Advance); annotate //caflint:allow wallclock for deliberate host-time use",
					fn.Name())
			}
			return true
		})
	}
	return nil
}
