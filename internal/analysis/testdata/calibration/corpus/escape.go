// Package corpus is the calibration ground-truth corpus: small, isolated
// functions whose escape behavior is unambiguous. The calibration test
// (analysis.TestCalibrationAgreement) diffs the allocflow analyzer's
// AllocEscape verdicts against `go build -gcflags=-m` over this package
// and requires >=95% agreement. Functions deliberately do
// not call each other, so inlining cannot move escape messages between
// lines.
package corpus

type point struct{ x, y int }

type holder struct{ p *point }

var (
	sink      *point
	sinkSlice []int
	sinkBytes []byte
	sinkMap   map[string]int
	sinkFn    func() int
	sinkHold  holder
)

// NewPoint returns a freshly allocated point: the &point literal escapes
// through the return value.
func NewPoint() *point { return &point{1, 2} }

// StoreGlobal escapes the literal through a package-level variable.
func StoreGlobal() { sink = &point{3, 4} }

// StoreField escapes the literal through a global struct field.
func StoreField() { sinkHold.p = &point{5, 6} }

// SliceLit escapes a slice literal through the return value.
func SliceLit() []int { return []int{1, 2, 3} }

// MakeBuf escapes a make'd buffer through the return value.
func MakeBuf() []byte { return make([]byte, 64) }

// MakeGlobal escapes a make'd slice through a package-level variable.
func MakeGlobal() { sinkBytes = make([]byte, 32) }

// NewInt escapes a new'd int through the return value.
func NewInt() *int { return new(int) }

// MapLit escapes a map literal through the return value.
func MapLit() map[string]int { return map[string]int{"a": 1} }

// MapGlobal escapes a map literal through a package-level variable.
func MapGlobal() { sinkMap = map[string]int{"b": 2} }

// Counter returns a capturing closure: the func literal escapes, and the
// captured counter is moved to the heap (a known analyzer divergence —
// the compiler reports the move at the declaration line, the analyzer
// attributes the whole allocation to the closure).
func Counter() func() int {
	n := 0
	return func() int { n++; return n }
}

// ClosureGlobal escapes a capturing closure through a package-level
// variable.
func ClosureGlobal() {
	k := 7
	sinkFn = func() int { return k }
}

var sinkArr *[3]int

// NewHolder escapes the &holder literal through the return value.
func NewHolder() *holder { return &holder{} }

// MakeInts escapes a make'd int slice through the return value.
func MakeInts() []int { return make([]int, 8) }

// StoreSliceLit escapes a slice literal through a package-level variable.
func StoreSliceLit() { sinkSlice = []int{9, 10} }

// NewPair escapes an &array literal through the return value.
func NewPair() *[2]int { return &[2]int{11, 12} }

// GlobalArray escapes an &array literal through a package-level variable.
func GlobalArray() { sinkArr = &[3]int{13, 14, 15} }
