// Package vet implements the `vcpusim vet` subcommand. It bundles the
// static verifiers that gate a simulation study before any replication
// runs:
//
//   - model verification (internal/sanalyze): the SAN model built from an
//     experiment configuration (-config), or each model of the built-in
//     suite, is checked for shape defects — mis-normalized case
//     probabilities, links to unknown or unjoined places, write-only and
//     isolated places, instantaneous token cycles, dangling reward
//     references, dead activities — and *proved* bounded and
//     deadlock-free: P/T-invariants from the incidence matrix, per-place
//     boundedness certificates, bounded explicit-state reachability with
//     counterexample traces, declared conservation laws, and a dynamic
//     gate/link conformance replay.
//   - source verification (internal/golint): the simulator's own Go
//     source is checked against the determinism contract — no math/rand,
//     no wall-clock reads, no map iteration on simulation hot paths, no
//     san.Program writes after Compile, no inline sampling of rng draws —
//     and for dead API: no exported internal/ declaration that only its
//     own package's tests reference.
//
// With -json every finding is emitted as one JSON object per line (a
// stable machine-readable schema) and the exit status is non-zero only
// when findings exist. Any problem makes the run fail, so the verifiers
// can sit in CI ahead of the (much more expensive) replication sweep.
package vet

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"

	"vcpusim/internal/config"
	"vcpusim/internal/core"
	"vcpusim/internal/faults"
	"vcpusim/internal/golint"
	"vcpusim/internal/rng"
	"vcpusim/internal/san"
	"vcpusim/internal/sanalyze"
	"vcpusim/internal/sanalyze/fixtures"
	"vcpusim/internal/sched"
	"vcpusim/internal/workload"
)

// Deterministic budget for the conformance replay of model verification:
// one fig8 horizon at a fixed seed, checked firing by firing.
const (
	conformanceHorizon = 2000
	conformanceSeed    = 7
)

// jsonFinding is the stable machine-readable finding schema emitted by
// -json, one object per line. Tool distinguishes the producing verifier
// (sanalyze, golint); Model/Component locate model findings,
// File/Line/Col locate source findings.
type jsonFinding struct {
	Tool      string   `json:"tool"`
	Model     string   `json:"model,omitempty"`
	Check     string   `json:"check"`
	Severity  string   `json:"severity"`
	Component string   `json:"component,omitempty"`
	Message   string   `json:"message"`
	File      string   `json:"file,omitempty"`
	Line      int      `json:"line,omitempty"`
	Col       int      `json:"col,omitempty"`
	Trace     []string `json:"trace,omitempty"`
}

// printer renders either human text or JSONL depending on mode. In JSON
// mode all prose (ok lines, report sections) is suppressed: the output
// is exactly one JSON object per finding.
type printer struct {
	w    io.Writer
	json bool
}

func (p *printer) finding(f jsonFinding) {
	if p.json {
		b, _ := json.Marshal(f)
		fmt.Fprintf(p.w, "%s\n", b)
		return
	}
	// Human renderings match each verifier's native format.
	switch {
	case f.File != "":
		fmt.Fprintf(p.w, "%s:%d:%d: %s: %s\n", f.File, f.Line, f.Col, f.Check, f.Message)
	default:
		fmt.Fprintf(p.w, "%s: %s: %s: %s\n", f.Severity, f.Check, f.Component, f.Message)
	}
}

func (p *printer) textf(format string, args ...any) {
	if !p.json {
		fmt.Fprintf(p.w, format, args...)
	}
}

// Run executes the vet command line and writes its report to out. It
// returns a non-nil error when any verifier reports a problem, so the
// subcommand exits non-zero on findings.
func Run(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("vet", flag.ContinueOnError)
	fs.SetOutput(out)
	var (
		root        = fs.String("root", "", "module root for the source lint (default: discovered upward from the working directory)")
		configPath  = fs.String("config", "", "verify the SAN model built from this experiment configuration (default: the built-in model suite)")
		fixtureDemo = fs.Bool("fixtures", false, "demonstrate the model checks on the seeded-defect fixtures and exit")
		noSource    = fs.Bool("nosource", false, "skip the Go source determinism lint")
		jsonOut     = fs.Bool("json", false, "emit findings as JSON objects, one per line; exit non-zero only on findings")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() > 0 {
		return fmt.Errorf("unexpected argument %q", fs.Arg(0))
	}
	p := &printer{w: out, json: *jsonOut}
	if *fixtureDemo {
		demoFixtures(p)
		return nil
	}

	problems, err := verifyModels(p, *configPath)
	if err != nil {
		return err
	}
	if !*noSource {
		n, err := lintSource(p, *root)
		if err != nil {
			return err
		}
		problems += n
	}
	if problems > 0 {
		return fmt.Errorf("%d problem(s)", problems)
	}
	return nil
}

// lintSource runs the determinism lint over the module rooted at root,
// discovering the root from the working directory when empty.
func lintSource(p *printer, root string) (int, error) {
	if root == "" {
		wd, err := os.Getwd()
		if err != nil {
			return 0, err
		}
		root, err = findModuleRoot(wd)
		if err != nil {
			return 0, err
		}
	}
	findings, err := golint.Run(root)
	if err != nil {
		return 0, err
	}
	for _, f := range findings {
		p.finding(jsonFinding{
			Tool:     "golint",
			Check:    f.Rule,
			Severity: "error",
			Message:  f.Message,
			File:     f.Pos.Filename,
			Line:     f.Pos.Line,
			Col:      f.Pos.Column,
		})
	}
	if len(findings) == 0 {
		p.textf("source %s: ok\n", root)
	}
	return len(findings), nil
}

// buildFromConfig builds the system model an experiment configuration
// describes (including its fault plan, if any).
func buildFromConfig(configPath string) (*core.System, error) {
	f, err := os.Open(configPath)
	if err != nil {
		return nil, err
	}
	exp, err := config.Parse(f)
	f.Close()
	if err != nil {
		return nil, err
	}
	cfg, err := exp.SystemConfig()
	if err != nil {
		return nil, err
	}
	factory, err := exp.SchedulerFactory()
	if err != nil {
		return nil, err
	}
	return core.BuildSystem(cfg, factory(), rng.New(exp.Seed))
}

// suiteModel is one model to verify.
type suiteModel struct {
	name string
	sys  *core.System
}

// builtinModels composes the shipped model variants: the Figure 8
// barrier system, its spinlock variant (the paper's §II.B extension),
// and the mixed fault campaign with one administratively disabled spec
// (exercising the disabled-activity exclusion).
func builtinModels() ([]suiteModel, error) {
	wl := func(kind workload.SyncKind) workload.Spec {
		return workload.Spec{Load: rng.Uniform{Low: 1, High: 10}, SyncEveryN: 5, SyncKind: kind}
	}
	base := func(kind workload.SyncKind, plan *faults.Plan) core.SystemConfig {
		return core.SystemConfig{
			PCPUs:     2,
			Timeslice: 30,
			VMs: []core.VMConfig{
				{VCPUs: 2, Workload: wl(kind)},
				{VCPUs: 1, Workload: wl(kind)},
				{VCPUs: 1, Workload: wl(kind)},
			},
			Faults: plan,
		}
	}
	dur := &faults.Dist{Dist: "deterministic", Value: 500}
	plan := &faults.Plan{Faults: []faults.Spec{
		{Name: "crash1", Kind: faults.KindPCPUCrash, PCPU: 1, At: 1500, Duration: dur},
		{Name: "slow0", Kind: faults.KindPCPUSlow, PCPU: 0, Factor: 0.5, At: 600, Duration: dur},
		{Name: "storm", Kind: faults.KindVCPUStall, VCPU: 0,
			Every:    &faults.Dist{Dist: "exponential", Rate: 0.002},
			Duration: &faults.Dist{Dist: "uniform", Low: 50, High: 200}, Count: 3},
		{Name: "dormant", Kind: faults.KindMisdecision, At: 4000, Duration: dur, Disabled: true},
	}}
	cases := []struct {
		name string
		cfg  core.SystemConfig
	}{
		{"fig8-barrier", base(workload.SyncBarrier, nil)},
		{"fig8-spinlock", base(workload.SyncSpinlock, nil)},
		{"faults-campaign", base(workload.SyncBarrier, plan)},
	}
	var models []suiteModel
	for _, c := range cases {
		sys, err := core.BuildSystem(c.cfg, sched.NewRoundRobin(c.cfg.Timeslice), rng.New(1))
		if err != nil {
			return nil, fmt.Errorf("building %s: %w", c.name, err)
		}
		models = append(models, suiteModel{name: c.name, sys: sys})
	}
	return models, nil
}

// verifyModels verifies the -config model, or every built-in suite model
// when there is none, and returns the number of findings. Any finding —
// including an unproven certificate — fails the gate.
func verifyModels(p *printer, configPath string) (int, error) {
	var models []suiteModel
	if configPath != "" {
		sys, err := buildFromConfig(configPath)
		if err != nil {
			return 0, err
		}
		models = []suiteModel{{name: configPath, sys: sys}}
	} else {
		var err error
		models, err = builtinModels()
		if err != nil {
			return 0, err
		}
	}

	problems := 0
	for _, m := range models {
		n, err := verifyModel(p, m)
		if err != nil {
			return 0, err
		}
		problems += n
	}
	return problems, nil
}

// verifyModel runs the full analysis over one system: static analysis
// with the fault plan's disabled injectors excluded, then the dynamic
// conformance replay.
func verifyModel(p *printer, m suiteModel) (int, error) {
	prog, err := san.Compile(m.sys.Model())
	if err != nil {
		return 0, err
	}
	in, err := prog.NewInstance()
	if err != nil {
		return 0, err
	}
	if err := m.sys.ArmInstance(in); err != nil {
		return 0, err
	}

	r := sanalyze.AnalyzeModel(m.sys.Model(), sanalyze.Options{
		Disabled: in.DisabledActivityNames(),
	})
	conf, checked, err := sanalyze.Conformance(in, conformanceHorizon, conformanceSeed)
	if err != nil {
		return 0, fmt.Errorf("%s: conformance replay: %w", m.name, err)
	}

	p.textf("=== %s ===\n", m.name)
	if !p.json {
		r.Write(p.w)
	} else {
		for _, f := range r.Findings {
			p.finding(modelJSON(m.name, f))
		}
	}
	for _, f := range conf {
		p.finding(modelJSON(m.name, f))
	}
	if len(conf) == 0 {
		p.textf("  conformance: %d firings checked, 0 violations\n", checked)
	}
	return len(r.Findings) + len(conf), nil
}

func modelJSON(model string, f sanalyze.Finding) jsonFinding {
	return jsonFinding{
		Tool:      "sanalyze",
		Model:     model,
		Check:     f.Check,
		Severity:  f.Severity.String(),
		Component: f.Component,
		Message:   f.Message,
		Trace:     f.Trace,
	}
}

// demoFixtures renders the analyzer's verdicts on every seeded-defect
// fixture, with counterexamples where reachability produced one. The
// defects are intentional, so the demo always succeeds; it exists to show
// each check firing (and each clean counterpart passing).
func demoFixtures(p *printer) {
	for _, fx := range fixtures.All() {
		r := sanalyze.AnalyzeModel(fx.Build(), sanalyze.Options{Disabled: fx.Disabled})
		if len(r.Findings) == 0 {
			p.textf("%s: clean\n", fx.Name)
			continue
		}
		p.textf("%s:\n", fx.Name)
		for _, f := range r.Findings {
			if p.json {
				p.finding(modelJSON(fx.Name, f))
				continue
			}
			p.textf("  %s\n", f)
		}
	}
}

// findModuleRoot walks upward from dir to the nearest directory
// containing go.mod.
func findModuleRoot(dir string) (string, error) {
	dir, err := filepath.Abs(dir)
	if err != nil {
		return "", err
	}
	for {
		if _, err := os.Stat(filepath.Join(dir, "go.mod")); err == nil {
			return dir, nil
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", fmt.Errorf("no go.mod found upward of the working directory; pass -root")
		}
		dir = parent
	}
}
