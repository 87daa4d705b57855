package store

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"strconv"
	"sync"

	"gem/internal/core"
	"gem/internal/gemlang"
	"gem/internal/history"
	"gem/internal/logic"
	"gem/internal/obs"
	"gem/internal/order"
	"gem/internal/spec"
)

// specHashes memoizes gemlang.HashSpec per live spec pointer: whole-spec
// hashes key sat records and are requested once per checked
// computation, but a spec's canonical rendering never changes.
var specHashes sync.Map // *spec.Spec → string

func hashSpec(sp *spec.Spec) string {
	if h, ok := specHashes.Load(sp); ok {
		return h.(string)
	}
	h := gemlang.HashSpec(sp)
	specHashes.Store(sp, h)
	return h
}

// key derives a record key: the hex SHA-256 of the NUL-joined parts.
// Every key embeds a record-type tag and the relevant format/engine
// versions, so version bumps make old records unreachable rather than
// mis-read.
func key(parts ...string) string {
	h := sha256.New()
	for _, p := range parts {
		h.Write([]byte(p))
		h.Write([]byte{0})
	}
	return hex.EncodeToString(h.Sum(nil))
}

var engineVersionStr = strconv.Itoa(EngineVersion)

func verdictKey(f logic.Formula, c *core.Computation, engine logic.Engine) string {
	return key("verdict", engineVersionStr, engine.String(), gemlang.HashFormula(f), core.Fingerprint(c))
}

func satKey(problem *spec.Spec, c *core.Computation, corrKey string, engine logic.Engine) string {
	return key("sat", engineVersionStr, engine.String(), hashSpec(problem), corrKey, core.Fingerprint(c))
}

func guardsKey(sp *spec.Spec, c *core.Computation) string {
	return key("guards", engineVersionStr, hashSpec(sp), core.Fingerprint(c))
}

func latticeKey(fp string) string {
	return key("lattice", strconv.Itoa(history.LatticeFormatVersion), fp)
}

// Lookup implements logic.VerdictCache: it serves a previously persisted
// restriction verdict for (f, c, engine), rehydrating the failing
// witness against the live computation. Any decode or validation failure
// is a miss. On a miss it also probes the lattice artifact once per
// computation, so the evaluation about to run starts from the persisted
// history enumeration instead of rebuilding it.
func (s *Store) Lookup(f logic.Formula, c *core.Computation, engine logic.Engine) (*logic.Counterexample, bool) {
	if s == nil || s.mode == Off {
		return nil, false
	}
	_, sp := obs.StartSpan(nil, "store.lookup")
	defer sp.End()
	if payload, ok := s.read(verdictKey(f, c, engine), kindVerdict); ok {
		if cx, err := decodeVerdict(payload, f, c); err == nil {
			s.hit()
			return cx, true
		}
	}
	s.miss()
	s.hydrateLattice(c)
	return nil, false
}

// Store implements logic.VerdictCache's write-behind: it persists the
// verdict just computed for (f, c, engine), and piggybacks the lattice
// artifact if this computation's lattice was enumerated during the
// evaluation.
func (s *Store) Store(f logic.Formula, c *core.Computation, engine logic.Engine, cx *logic.Counterexample) {
	if s == nil || s.mode != ReadWrite {
		return
	}
	s.write(verdictKey(f, c, engine), kindVerdict, encodeVerdict(cx))
	s.persistLattice(c)
}

// LookupGuards implements legal.GuardCache. No program code calls it:
// the benchmark's store wrapper still forwards it, and it goes with the
// next revision of that benchmark.
func (s *Store) LookupGuards(sp *spec.Spec, c *core.Computation) ([]bool, bool) {
	if s == nil || s.mode == Off {
		return nil, false
	}
	payload, ok := s.read(guardsKey(sp, c), kindGuards)
	if !ok {
		s.miss()
		return nil, false
	}
	hold, err := decodeGuards(payload)
	if err != nil {
		s.miss()
		return nil, false
	}
	s.hit()
	return hold, true
}

// StoreGuards implements legal.GuardCache. No program code calls it:
// the benchmark's store wrapper still forwards it, and it goes with the
// next revision of that benchmark.
func (s *Store) StoreGuards(sp *spec.Spec, c *core.Computation, hold []bool) {
	if s == nil || s.mode != ReadWrite {
		return
	}
	s.write(guardsKey(sp, c), kindGuards, encodeGuards(hold))
}

// LookupSat implements verify.SatCache: a hit means a prior complete,
// uncancelled run proved this exact (problem, correspondence, program
// computation, engine) combination sat. This is the warm fast path — it
// skips projection, thread labelling, and the whole legality check.
func (s *Store) LookupSat(problem *spec.Spec, c *core.Computation, corrKey string, engine logic.Engine) bool {
	if s == nil || s.mode == Off {
		return false
	}
	_, sp := obs.StartSpan(nil, "store.sat")
	defer sp.End()
	payload, ok := s.read(satKey(problem, c, corrKey, engine), kindSat)
	if !ok || len(payload) != 1 || payload[0] != 1 {
		s.miss()
		return false
	}
	s.hit()
	return true
}

// StoreSat implements verify.SatCache. Only sat — failures are never
// recorded, so refutations recompute and keep their counterexamples.
func (s *Store) StoreSat(problem *spec.Spec, c *core.Computation, corrKey string, engine logic.Engine) {
	if s == nil || s.mode != ReadWrite {
		return
	}
	s.write(satKey(problem, c, corrKey, engine), kindSat, []byte{1})
}

// latticeState tracks, per computation, whether the lattice artifact was
// already probed and whether the on-disk copy is current. It lives in
// the computation's Derived cache, but is created OUTSIDE the calls that
// use it — Derived holds the computation mutex during build, so the
// probe I/O and Hydrate run strictly after the tiny allocation below.
type latticeState struct {
	probed    sync.Once
	persisted bool // guarded by probed/once semantics + persistMu
	persistMu sync.Mutex
}

func latState(c *core.Computation) *latticeState {
	return c.Derived("store.lattice", func() any { return new(latticeState) }).(*latticeState)
}

// hydrateLattice seeds the computation's shared history lattice from the
// persisted artifact, at most once per computation per process. Called
// on the verdict-miss path, before the engines enumerate.
func (s *Store) hydrateLattice(c *core.Computation) {
	st := latState(c)
	lat := history.Shared(c)
	fp := core.Fingerprint(c)
	st.probed.Do(func() {
		if lat.Enumerated() {
			return
		}
		payload, ok := s.read(latticeKey(fp), kindLattice)
		if !ok {
			s.miss()
			return
		}
		if err := lat.Hydrate(payload); err != nil {
			s.miss()
			return
		}
		s.hit()
		st.persistMu.Lock()
		st.persisted = true
		st.persistMu.Unlock()
	})
}

// persistLattice writes the lattice artifact behind, once, if the
// evaluation actually enumerated it (never forcing an enumeration just
// to persist one).
func (s *Store) persistLattice(c *core.Computation) {
	if s == nil || s.mode != ReadWrite {
		return
	}
	lat := history.Shared(c)
	if !lat.Enumerated() {
		return
	}
	st := latState(c)
	st.persistMu.Lock()
	defer st.persistMu.Unlock()
	if st.persisted {
		return
	}
	st.persisted = true
	s.write(latticeKey(core.Fingerprint(c)), kindLattice, lat.Encode())
}

// ---- verdict payload codec ----

// Verdict payload layout:
//
//	flag byte (0 pass, 1 fail) — pass records end here.
//	formula hash (hex, length-prefixed): the canonical hash of the
//	  failing (sub)formula, matched against the live formula's
//	  decomposition on decode so the rehydrated counterexample renders
//	  byte-identically to the computed one.
//	uvarint numEvents (validated against the live computation)
//	history set | uvarint seqLen | seq sets — each set as uvarint size
//	  plus delta-encoded members.
func encodeVerdict(cx *logic.Counterexample) []byte {
	if cx == nil {
		return []byte{0}
	}
	out := []byte{1}
	fh := gemlang.HashFormula(cx.Formula)
	out = binary.AppendUvarint(out, uint64(len(fh)))
	out = append(out, fh...)
	out = binary.AppendUvarint(out, uint64(cx.Comp.NumEvents()))
	out = appendSet(out, cx.History.Set())
	out = binary.AppendUvarint(out, uint64(len(cx.Seq)))
	for _, h := range cx.Seq {
		out = appendSet(out, h.Set())
	}
	return out
}

func appendSet(out []byte, set order.Bitset) []byte {
	members := set.Members()
	out = binary.AppendUvarint(out, uint64(len(members)))
	prev := -1
	for _, m := range members {
		out = binary.AppendUvarint(out, uint64(m-prev))
		prev = m
	}
	return out
}

// decodeVerdict rehydrates a verdict payload against the live formula
// and computation. It validates everything: sets must be in-range,
// strictly increasing, and prefix-closed (history.FromSet), and the
// recorded failing formula must match the live formula or one of the
// subformulas the engines can attribute a failure to (And conjuncts,
// recursively, and □ bodies — mirroring the dispatch in logic.Holds).
// Any mismatch is an error, which the caller treats as a miss.
func decodeVerdict(payload []byte, f logic.Formula, c *core.Computation) (*logic.Counterexample, error) {
	if len(payload) == 0 {
		return nil, errCorrupt
	}
	flag, rest := payload[0], payload[1:]
	switch flag {
	case 0:
		if len(rest) != 0 {
			return nil, errCorrupt
		}
		return nil, nil
	case 1:
	default:
		return nil, errCorrupt
	}
	next := func() (uint64, bool) {
		v, n := binary.Uvarint(rest)
		if n <= 0 {
			return 0, false
		}
		rest = rest[n:]
		return v, true
	}
	fhLen, ok := next()
	if !ok || fhLen > uint64(len(rest)) {
		return nil, errCorrupt
	}
	fh := string(rest[:fhLen])
	rest = rest[fhLen:]
	failing := matchFormula(f, fh)
	if failing == nil {
		return nil, errCorrupt
	}
	n, ok := next()
	if !ok || int(n) != c.NumEvents() {
		return nil, errCorrupt
	}
	readSet := func() (order.Bitset, bool) {
		size, ok := next()
		if !ok || size > uint64(c.NumEvents()) {
			return order.Bitset{}, false
		}
		set := order.NewBitset(c.NumEvents())
		prev := -1
		for i := uint64(0); i < size; i++ {
			gap, ok := next()
			if !ok || gap == 0 || gap > uint64(c.NumEvents()) {
				return order.Bitset{}, false
			}
			m := prev + int(gap)
			if m >= c.NumEvents() {
				return order.Bitset{}, false
			}
			set.Set(m)
			prev = m
		}
		return set, true
	}
	hset, ok := readSet()
	if !ok {
		return nil, errCorrupt
	}
	h, err := history.FromSet(c, hset)
	if err != nil {
		return nil, errCorrupt
	}
	seqLen, ok := next()
	if !ok || seqLen > uint64(len(rest))+1 {
		return nil, errCorrupt
	}
	var seq history.Sequence
	for i := uint64(0); i < seqLen; i++ {
		set, ok := readSet()
		if !ok {
			return nil, errCorrupt
		}
		sh, err := history.FromSet(c, set)
		if err != nil {
			return nil, errCorrupt
		}
		seq = append(seq, sh)
	}
	if len(rest) != 0 {
		return nil, errCorrupt
	}
	return &logic.Counterexample{Formula: failing, History: h, Seq: seq, Comp: c}, nil
}

// matchFormula finds the (sub)formula of f whose canonical hash is
// wantHash, searching the shapes logic.Holds can attribute a failure to:
// the formula itself, And conjuncts (the top-level split), and □ bodies
// (the invariant reduction reports the body). Returns nil if nothing
// matches — the record then belongs to a different formula and must be
// treated as corrupt.
func matchFormula(f logic.Formula, wantHash string) logic.Formula {
	if gemlang.HashFormula(f) == wantHash {
		return f
	}
	switch g := f.(type) {
	case logic.And:
		for _, sub := range g {
			if m := matchFormula(sub, wantHash); m != nil {
				return m
			}
		}
	case logic.Box:
		return matchFormula(g.F, wantHash)
	}
	return nil
}

// ---- guards payload codec ----
//
// Only LookupGuards and StoreGuards use it; it goes with them.

// Guard payload: uvarint length, then the bits packed LSB-first. Length
// zero round-trips as a nil vector ("no guard fires").
func encodeGuards(hold []bool) []byte {
	out := binary.AppendUvarint(nil, uint64(len(hold)))
	var cur byte
	for i, h := range hold {
		if h {
			cur |= 1 << (i % 8)
		}
		if i%8 == 7 {
			out = append(out, cur)
			cur = 0
		}
	}
	if len(hold)%8 != 0 {
		out = append(out, cur)
	}
	return out
}

func decodeGuards(payload []byte) ([]bool, error) {
	n, sz := binary.Uvarint(payload)
	if sz <= 0 || n > uint64(len(payload))*8 {
		return nil, errCorrupt
	}
	rest := payload[sz:]
	if uint64(len(rest)) != (n+7)/8 {
		return nil, errCorrupt
	}
	if n == 0 {
		return nil, nil
	}
	hold := make([]bool, n)
	for i := range hold {
		hold[i] = rest[i/8]&(1<<(i%8)) != 0
	}
	// Bits past n must be clear, so distinct payloads stay distinct.
	if tail := n % 8; tail != 0 && rest[len(rest)-1]>>tail != 0 {
		return nil, errCorrupt
	}
	return hold, nil
}
