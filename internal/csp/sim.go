package csp

import (
	"context"
	"fmt"

	"gem/internal/core"
	"gem/internal/explore"
)

// Run is one complete (or deadlocked) execution rendered as a GEM
// computation.
type Run struct {
	Comp      *core.Computation
	FinalVars map[string]map[string]int64 // per process
	Deadlock  bool
}

// ExploreOptions bounds the exploration.
type ExploreOptions struct {
	MaxRuns  int // cap on distinct runs (0 = 100000)
	MaxSteps int // per-run step cap (0 = 10000)
	// Ctx cancels the exploration: the DFS polls it at every node, and a
	// cancelled context aborts the walk with ctx.Err() after at most one
	// further run. nil means never cancelled.
	Ctx context.Context
}

// Explore exhaustively enumerates the program's executions and returns
// the distinct GEM computations (distinct as partial orders). The bool
// reports truncation by MaxRuns. It is the collect-all form of
// ExploreStream.
func Explore(p *Program, opts ExploreOptions) ([]Run, bool, error) {
	var runs []Run
	truncated, err := ExploreStream(p, opts, func(r Run) bool {
		runs = append(runs, r)
		return true
	})
	if err != nil {
		return nil, false, err
	}
	return runs, truncated, nil
}

// ExploreStream enumerates the distinct runs like Explore but hands each
// one to yield as soon as it completes, in deterministic DFS order, so
// checkers can consume runs while exploration is still in progress. If
// yield returns false the exploration stops early with truncated ==
// false and a nil error.
func ExploreStream(p *Program, opts ExploreOptions, yield func(Run) bool) (bool, error) {
	m, err := newMachine(p)
	if err != nil {
		return false, err
	}
	return explore.Walk[*machine, transition](m,
		explore.Options{Name: "csp", MaxRuns: opts.MaxRuns, MaxSteps: opts.MaxSteps, Ctx: opts.Ctx}, finish, yield)
}

type frame struct {
	block []Stmt
	idx   int
}

type procState struct {
	vars   map[string]int64
	frames []frame
}

type machine struct {
	prog   *Program
	procs  []procState
	byName map[string]int

	trace explore.Trace
	// ext holds the cells of external shared elements accessed via
	// Op{Element: …}.
	ext map[string]int64
}

func newMachine(p *Program) (*machine, error) {
	m := &machine{
		prog:   p,
		procs:  make([]procState, len(p.Processes)),
		byName: make(map[string]int, len(p.Processes)),
		trace:  explore.NewTrace(len(p.Processes)),
		ext:    make(map[string]int64),
	}
	for i, proc := range p.Processes {
		if _, dup := m.byName[proc.Name]; dup {
			return nil, fmt.Errorf("csp: duplicate process name %q", proc.Name)
		}
		m.byName[proc.Name] = i
		vars := make(map[string]int64, len(proc.Vars))
		for _, v := range proc.Vars {
			vars[v] = 0
		}
		m.procs[i] = procState{
			vars:   vars,
			frames: []frame{{block: proc.Body}},
		}
	}
	for _, proc := range p.Processes {
		if err := m.validateStmts(proc.Name, proc.Body); err != nil {
			return nil, err
		}
	}
	return m, nil
}

// validateStmts checks that every communication names a declared process.
func (m *machine) validateStmts(procName string, body []Stmt) error {
	for _, st := range body {
		switch s := st.(type) {
		case Send:
			if _, ok := m.byName[s.To]; !ok {
				return fmt.Errorf("csp: process %s sends to unknown process %q", procName, s.To)
			}
		case Recv:
			if _, ok := m.byName[s.From]; !ok {
				return fmt.Errorf("csp: process %s receives from unknown process %q", procName, s.From)
			}
		case Alt:
			for _, br := range s.Branches {
				if br.Comm != nil {
					if err := m.validateStmts(procName, []Stmt{br.Comm}); err != nil {
						return err
					}
				}
				if err := m.validateStmts(procName, br.Body); err != nil {
					return err
				}
			}
		case Repeat:
			if err := m.validateStmts(procName, s.Body); err != nil {
				return err
			}
		}
	}
	return nil
}

func (m *machine) Trace() *explore.Trace { return &m.trace }

func (m *machine) Clone() *machine {
	next := &machine{
		prog:   m.prog,
		procs:  make([]procState, len(m.procs)),
		byName: m.byName,
		trace:  m.trace.Clone(),
		ext:    make(map[string]int64, len(m.ext)),
	}
	for k, v := range m.ext {
		next.ext[k] = v
	}
	for i, p := range m.procs {
		cp := procState{
			vars:   make(map[string]int64, len(p.vars)),
			frames: make([]frame, len(p.frames)),
		}
		for k, v := range p.vars {
			cp.vars[k] = v
		}
		copy(cp.frames, p.frames)
		next.procs[i] = cp
	}
	return next
}

// offer is a pending communication a process is ready to perform.
type offer struct {
	proc    int
	send    bool
	partner int
	branch  int // the Alt branch offering it, -1 for a plain Send or Recv
}

// transition is either a local step or a matched communication. It
// names the statement it runs by process and Alt branch, so equal
// transitions are the same step.
type transition struct {
	kind string // "local", "comm", "altlocal"
	// proc is the stepping process; for comm the sender.
	proc int
	// partner is a comm's receiver.
	partner int
	// branch is the Alt branch selected by altlocal, or the sender's for
	// comm (-1: a plain Send); inBranch is the receiver's.
	branch, inBranch int
}

// currentStmt returns the process's next statement without consuming it.
func (m *machine) currentStmt(proc int) (Stmt, bool) {
	p := &m.procs[proc]
	for len(p.frames) > 0 {
		top := &p.frames[len(p.frames)-1]
		if top.idx < len(top.block) {
			return top.block[top.idx], true
		}
		p.frames = p.frames[:len(p.frames)-1]
	}
	return nil, false
}

// consumeStmt advances past the current statement.
func (m *machine) consumeStmt(proc int) {
	top := &m.procs[proc].frames[len(m.procs[proc].frames)-1]
	top.idx++
}

// Transitions partitions schedulable steps for partial-order reduction:
// assignments, process-local ops, and Repeat unrolling commute with every
// other enabled transition (their events, if any, occur at the process's
// own element), so one of them may run eagerly without branching. The
// branching choices are communications, alternative selections, and
// operations at shared external elements.
func (m *machine) Transitions() (eager *transition, branches []transition) {
	var ts []transition
	var offers []offer
	for i := range m.procs {
		st, ok := m.currentStmt(i)
		if !ok {
			continue
		}
		switch s := st.(type) {
		case Assign, Repeat:
			return &transition{kind: "local", proc: i}, nil
		case Op:
			if s.Element == "" {
				return &transition{kind: "local", proc: i}, nil
			}
			ts = append(ts, transition{kind: "local", proc: i})
		case Send, Recv:
			if o, ok := m.newOffer(i, -1, s); ok {
				offers = append(offers, o)
			}
		case Alt:
			for b, br := range s.Branches {
				if br.Guard != nil && br.Guard.eval(m.procs[i].vars) == 0 {
					continue
				}
				if br.Comm == nil {
					ts = append(ts, transition{kind: "altlocal", proc: i, branch: b})
				} else if o, ok := m.newOffer(i, b, br.Comm); ok {
					offers = append(offers, o)
				}
			}
		}
	}
	// Match complementary offers.
	for _, o1 := range offers {
		if !o1.send {
			continue
		}
		for _, o2 := range offers {
			if o2.send || o2.proc != o1.partner || o2.partner != o1.proc {
				continue
			}
			ts = append(ts, transition{kind: "comm", proc: o1.proc, partner: o2.proc, branch: o1.branch, inBranch: o2.branch})
		}
	}
	return nil, ts
}

// newOffer returns the communication comm, a Send or Recv that proc
// runs from Alt branch b (-1: a plain statement), as an offer.
func (m *machine) newOffer(proc, b int, comm Stmt) (offer, bool) {
	o := offer{proc: proc, branch: b}
	var ok bool
	switch c := comm.(type) {
	case Send:
		o.send = true
		o.partner, ok = m.byName[c.To]
	case Recv:
		o.partner, ok = m.byName[c.From]
	}
	return o, ok
}

// comm returns the Send or Recv that proc runs from Alt branch b (-1:
// its current statement) and the body the branch continues with.
func (m *machine) comm(proc, b int) (Stmt, []Stmt) {
	st, _ := m.currentStmt(proc)
	if b < 0 {
		return st, nil
	}
	br := st.(Alt).Branches[b]
	return br.Comm, br.Body
}

// Independent reports whether two branches commute. A communication
// involves both partners and emits only at their own channel elements,
// and an altlocal step emits nothing, so transitions of disjoint
// processes commute unless both operate at one external element.
func (m *machine) Independent(a, b transition) bool {
	if a.involves(b.proc) || b.involves(a.proc) || a.kind == "comm" && b.involves(a.partner) {
		return false
	}
	ea, eb := m.extElement(a), m.extElement(b)
	switch {
	case ea != "" && eb != "":
		return ea != eb
	case ea != "" && b.kind == "comm":
		return !m.commElement(b, ea)
	case eb != "" && a.kind == "comm":
		return !m.commElement(a, eb)
	}
	return true
}

// involves reports whether process p takes part in t.
func (t transition) involves(p int) bool {
	return t.proc == p || t.kind == "comm" && t.partner == p
}

// extElement returns the external element a local step operates on,
// or "" for any other transition.
func (m *machine) extElement(t transition) string {
	if t.kind != "local" {
		return ""
	}
	st, _ := m.currentStmt(t.proc)
	return st.(Op).Element
}

// commElement reports whether the communication t emits at elem.
func (m *machine) commElement(t transition, elem string) bool {
	p, q := m.prog.Processes[t.proc].Name, m.prog.Processes[t.partner].Name
	return elem == OutElement(p, q) || elem == InpElement(q, p)
}

func (m *machine) Apply(t transition) error {
	switch t.kind {
	case "local":
		return m.stepLocal(t.proc)
	case "altlocal":
		st, _ := m.currentStmt(t.proc)
		m.consumeStmt(t.proc)
		if body := st.(Alt).Branches[t.branch].Body; len(body) > 0 {
			m.procs[t.proc].frames = append(m.procs[t.proc].frames, frame{block: body})
		}
		return nil
	case "comm":
		return m.stepComm(t)
	default:
		return fmt.Errorf("csp: unknown transition %q", t.kind)
	}
}

func (m *machine) stepLocal(proc int) error {
	st, _ := m.currentStmt(proc)
	m.consumeStmt(proc)
	p := &m.procs[proc]
	switch s := st.(type) {
	case Assign:
		p.vars[s.Var] = s.E.eval(p.vars)
	case Op:
		params := make(core.Params, len(s.Params)+2)
		for k, e := range s.Params {
			params[k] = core.Int(e.eval(p.vars))
		}
		elem := m.prog.Processes[proc].Name
		if s.Element != "" {
			elem = s.Element
			params["proc"] = core.Str(m.prog.Processes[proc].Name)
			switch s.Class {
			case "Assign":
				if v, ok := params["newval"]; ok {
					m.ext[s.Element] = v.I
				}
			case "Getval":
				params["oldval"] = core.Int(m.ext[s.Element])
			}
		}
		m.trace.Emit(proc, elem, s.Class, params)
	case Repeat:
		for k := 0; k < s.N; k++ {
			p.frames = append(p.frames, frame{block: s.Body})
		}
	default:
		return fmt.Errorf("csp: statement %T is not a local step", st)
	}
	return nil
}

func (m *machine) stepComm(t transition) error {
	sender, receiver := t.proc, t.partner
	pName := m.prog.Processes[sender].Name
	qName := m.prog.Processes[receiver].Name
	send, outBody := m.comm(sender, t.branch)
	recv, inpBody := m.comm(receiver, t.inBranch)
	value := send.(Send).E.eval(m.procs[sender].vars)

	m.consumeStmt(sender)
	m.consumeStmt(receiver)

	ident := func() core.Params {
		return core.Params{"v": core.Int(value), "proc": core.Str(pName), "partner": core.Str(qName)}
	}
	identR := func() core.Params {
		return core.Params{"v": core.Int(value), "proc": core.Str(qName), "partner": core.Str(pName)}
	}
	outReq := m.trace.Emit(sender, OutElement(pName, qName), "Req", ident())
	inpReq := m.trace.Emit(receiver, InpElement(qName, pName), "Req", identR())
	// Simultaneity: each End enabled by both requests.
	m.trace.Emit(sender, OutElement(pName, qName), "End", ident(), inpReq)
	m.trace.Emit(receiver, InpElement(qName, pName), "End", identR(), outReq)

	if v := recv.(Recv).Var; v != "" {
		m.procs[receiver].vars[v] = value
	}
	if len(outBody) > 0 {
		m.procs[sender].frames = append(m.procs[sender].frames, frame{block: outBody})
	}
	if len(inpBody) > 0 {
		m.procs[receiver].frames = append(m.procs[receiver].frames, frame{block: inpBody})
	}
	return nil
}

// finish builds the Run for a terminal state.
func finish(m *machine, comp *core.Computation) Run {
	deadlock := false
	finals := make(map[string]map[string]int64, len(m.procs))
	for i := range m.procs {
		if _, unfinished := m.currentStmt(i); unfinished {
			deadlock = true
		}
		vars := make(map[string]int64, len(m.procs[i].vars))
		for k, v := range m.procs[i].vars {
			vars[k] = v
		}
		finals[m.prog.Processes[i].Name] = vars
	}
	return Run{Comp: comp, FinalVars: finals, Deadlock: deadlock}
}
