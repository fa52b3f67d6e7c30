// Package serve is the serving front end hpserve puts between HTTP
// handlers and the simulation pool: a canonical content hash for schedule
// requests (key.go), a bounded LRU result cache with single-flight request
// coalescing (cache.go), and admission control with bounded queueing and
// load shedding (admission.go).
//
// The whole front end rests on one property of the simulator: a schedule
// is a pure function of (instance, platform, algorithm, seed). Caching a
// result under the canonical hash of those inputs is therefore exact — a
// hit returns byte-identical output to the miss that populated it — and
// coalescing N concurrent identical requests into one underlying run
// changes nothing but the amount of work done.
package serve

import (
	"crypto/sha256"
	"encoding/binary"
	"math"
	"sort"

	"repro/internal/platform"
)

// Key is the canonical content hash of a schedule request. Two requests
// have equal keys iff they agree on the canonical task multiset (the
// sorted (p, q, priority) list), the platform shape, the algorithm label,
// the seed, and every extra parameter. Keys are comparable and usable as
// map keys.
type Key [sha256.Size]byte

// CanonTask is one task in canonical form: the fields that determine
// scheduling decisions, stripped of identity (ID and Name label outputs
// but never change makespans or assignments of a generated workload).
type CanonTask struct {
	P, Q, Prio float64
}

// CanonicalTasks returns the canonical form of an instance: the
// (p, q, priority) triples sorted lexicographically. Permuting the input
// does not change the result; perturbing any duration does.
func CanonicalTasks(in platform.Instance) []CanonTask {
	out := make([]CanonTask, len(in))
	for i, t := range in {
		out[i] = CanonTask{P: t.CPUTime, Q: t.GPUTime, Prio: t.Priority}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].less(out[j]) })
	return out
}

// less orders canonical tasks lexicographically by (P, Q, Prio). The
// != / < pairs only route distinct floats; equal fields fall through to
// the next component.
func (a CanonTask) less(b CanonTask) bool {
	if a.P != b.P {
		return a.P < b.P
	}
	if a.Q != b.Q {
		return a.Q < b.Q
	}
	return a.Prio < b.Prio
}

// CanonicalEqual reports whether two instances have the same canonical
// form, i.e. the same multiset of (p, q, priority) triples. It is the
// equality KeyOf is injective over (up to hash collisions).
func CanonicalEqual(a, b platform.Instance) bool {
	if len(a) != len(b) {
		return false
	}
	ca, cb := CanonicalTasks(a), CanonicalTasks(b)
	for i := range ca {
		if ca[i] != cb[i] {
			return false
		}
	}
	return true
}

// KeyOf hashes a schedule request into its canonical Key: SHA-256 over a
// fixed-width encoding of the platform shape, the algorithm label, the
// seed, the extra parameters (each length-prefixed, in argument order —
// callers pass identifying request fields such as "workload=cholesky"),
// and the canonical task list. Every float is encoded via its IEEE-754
// bit pattern, so distinct values (down to one ulp) yield distinct
// encodings and there is no formatting round-trip.
func KeyOf(in platform.Instance, pl platform.Platform, alg string, seed int64, params ...string) Key {
	h := sha256.New()
	var buf [8]byte
	// A hash.Hash's Write never returns an error.
	word := func(v uint64) {
		binary.LittleEndian.PutUint64(buf[:], v)
		_, _ = h.Write(buf[:])
	}
	str := func(s string) {
		word(uint64(len(s)))
		_, _ = h.Write([]byte(s))
	}
	str("hpserve-key-v1")
	word(uint64(pl.CPUs))
	word(uint64(pl.GPUs))
	str(alg)
	word(uint64(seed))
	word(uint64(len(params)))
	for _, p := range params {
		str(p)
	}
	canon := CanonicalTasks(in)
	word(uint64(len(canon)))
	for _, t := range canon {
		word(math.Float64bits(t.P))
		word(math.Float64bits(t.Q))
		word(math.Float64bits(t.Prio))
	}
	var k Key
	h.Sum(k[:0])
	return k
}
