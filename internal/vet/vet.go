// Package vet implements the `vcpusim vet` subcommand. It bundles the
// static verifiers that gate a simulation study before any replication
// runs:
//
//   - model verification (internal/sanlint): the SAN model built from an
//     experiment configuration is checked for structural defects —
//     mis-normalized case probabilities, unreachable activities,
//     write-only places, instantaneous livelocks, undeclared join
//     sharing, dangling reward references.
//   - structural verification (internal/sanalyze, -structural): the
//     model is *proved* bounded and deadlock-free — P/T-invariants from
//     the incidence matrix, per-place boundedness certificates, bounded
//     explicit-state reachability with counterexample traces, declared
//     conservation laws, and a dynamic gate/link conformance replay.
//   - source verification (internal/golint): the simulator's own Go
//     source is checked against the determinism contract — no math/rand,
//     no wall-clock reads, no map iteration on simulation hot paths, no
//     san.Program writes after Compile, no inline sampling of rng draws.
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
	sanalyzefixtures "vcpusim/internal/sanalyze/fixtures"
	"vcpusim/internal/sanlint"
	"vcpusim/internal/sanlint/fixtures"
	"vcpusim/internal/sched"
	"vcpusim/internal/workload"
)

// Deterministic budget for the conformance replay behind -structural:
// one fig8 horizon at a fixed seed, checked firing by firing.
const (
	conformanceHorizon = 2000
	conformanceSeed    = 7
)

// jsonFinding is the stable machine-readable finding schema emitted by
// -json, one object per line. Tool distinguishes the producing verifier
// (sanlint, sanalyze, golint); Model/Component locate model findings,
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
// returns a non-nil error when any verifier reports a problem, so both
// callers (the subcommand and the standalone binary) exit non-zero on
// findings.
func Run(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("vet", flag.ContinueOnError)
	fs.SetOutput(out)
	var (
		root        = fs.String("root", "", "module root for the source lint (default: discovered upward from the working directory)")
		configPath  = fs.String("config", "", "verify the SAN model built from this experiment configuration")
		fixtureDemo = fs.Bool("fixtures", false, "demonstrate the model checks on the seeded-defect fixtures and exit")
		noSource    = fs.Bool("nosource", false, "skip the Go source determinism lint")
		structural  = fs.Bool("structural", false, "prove boundedness/deadlock-freedom structurally (built-in model suite, or the -config model)")
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
	if *structural {
		return runStructural(p, *configPath)
	}
	if *noSource && *configPath == "" {
		return fmt.Errorf("nothing to verify: -nosource without -config disables every check")
	}

	problems := 0
	if *configPath != "" {
		n, err := lintModel(p, *configPath)
		if err != nil {
			return err
		}
		problems += n
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

// lintModel builds the system model described by an experiment
// configuration and reports its sanlint diagnostics.
func lintModel(p *printer, configPath string) (int, error) {
	sys, err := buildFromConfig(configPath)
	if err != nil {
		return 0, err
	}
	diags := sanlint.AnalyzeModel(sys.Model())
	for _, d := range diags {
		p.finding(jsonFinding{
			Tool:      "sanlint",
			Model:     sys.Model().Name(),
			Check:     d.Check,
			Severity:  d.Severity.String(),
			Component: d.Component,
			Message:   d.Message,
		})
	}
	if len(diags) == 0 {
		p.textf("model %s: ok (%s)\n", sys.Config(), configPath)
	}
	return len(diags), nil
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

// structuralModel is one entry of the structural verification suite.
type structuralModel struct {
	name string
	sys  *core.System
}

// builtinStructural composes the shipped model variants: the Figure 8
// barrier system, its spinlock variant (the paper's §II.B extension),
// and the mixed fault campaign with one administratively disabled spec
// (exercising the disabled-activity exclusion).
func builtinStructural() ([]structuralModel, error) {
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
	var models []structuralModel
	for _, c := range cases {
		sys, err := core.BuildSystem(c.cfg, sched.NewRoundRobin(c.cfg.Timeslice), rng.New(1))
		if err != nil {
			return nil, fmt.Errorf("building %s: %w", c.name, err)
		}
		models = append(models, structuralModel{name: c.name, sys: sys})
	}
	return models, nil
}

// runStructural proves every suite model bounded and deadlock-free and
// replays it through the gate/link conformance check. Any finding —
// including an unproven certificate — fails the gate.
func runStructural(p *printer, configPath string) error {
	var models []structuralModel
	if configPath != "" {
		sys, err := buildFromConfig(configPath)
		if err != nil {
			return err
		}
		models = []structuralModel{{name: configPath, sys: sys}}
	} else {
		var err error
		models, err = builtinStructural()
		if err != nil {
			return err
		}
	}

	problems := 0
	for _, m := range models {
		n, err := verifyStructure(p, m)
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

// verifyStructure runs the full structural pass over one system: static
// analysis with the fault plan's disabled injectors excluded, then the
// dynamic conformance replay.
func verifyStructure(p *printer, m structuralModel) (int, error) {
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
			p.finding(structuralJSON(m.name, f))
		}
	}
	for _, f := range conf {
		p.finding(structuralJSON(m.name, f))
	}
	if len(conf) == 0 {
		p.textf("  conformance: %d firings checked, 0 violations\n", checked)
	}
	return len(r.Findings) + len(conf), nil
}

func structuralJSON(model string, f sanalyze.Finding) jsonFinding {
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

// demoFixtures renders the analyzers' verdicts on every seeded-defect
// fixture — the sanlint shape checks first, then the sanalyze structural
// checks with their counterexamples. The defects are intentional, so the
// demo always succeeds; it exists to show each check firing (and each
// clean counterpart passing).
func demoFixtures(p *printer) {
	for _, fx := range fixtures.All() {
		diags := sanlint.AnalyzeModel(fx.Build())
		if len(diags) == 0 {
			p.textf("%s: clean\n", fx.Name)
			continue
		}
		p.textf("%s:\n", fx.Name)
		for _, d := range diags {
			if p.json {
				p.finding(jsonFinding{
					Tool: "sanlint", Model: fx.Name, Check: d.Check,
					Severity: d.Severity.String(), Component: d.Component, Message: d.Message,
				})
				continue
			}
			p.textf("  %s\n", d)
		}
	}
	for _, fx := range sanalyzefixtures.All() {
		r := sanalyze.AnalyzeModel(fx.Build(), sanalyze.Options{Disabled: fx.Disabled})
		if len(r.Findings) == 0 {
			p.textf("structural:%s: clean\n", fx.Name)
			continue
		}
		p.textf("structural:%s:\n", fx.Name)
		for _, f := range r.Findings {
			if p.json {
				p.finding(structuralJSON(fx.Name, f))
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
