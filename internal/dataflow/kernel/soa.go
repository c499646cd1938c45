package kernel

// KV is a struct-of-arrays arena for tagged value lattices (constant
// propagation): each row is Width cells, a cell being a (kind, val)
// pair split across two parallel slices. Keeping kinds in a dense
// []uint8 makes the common all-⊥/all-⊤ scans cache-friendly; values
// are only consulted when the kind says they are meaningful. Domains
// are expected to keep cells *normalized* — val forced to 0 whenever
// the kind carries no payload — so raw slice comparison implements
// lattice equality.
type KV struct {
	Width int
	Kind  []uint8
	Val   []int64
}

// NewKV returns an arena with width cells per row.
func NewKV(width int) *KV { return &KV{Width: width} }

// Grow ensures the arena holds at least rows rows.
func (a *KV) Grow(rows int) {
	if need := rows * a.Width; len(a.Kind) < need {
		a.Kind = make([]uint8, need)
		a.Val = make([]int64, need)
	}
}

// Row returns row r's kind and value cells.
func (a *KV) Row(r int) ([]uint8, []int64) {
	o := r * a.Width
	return a.Kind[o : o+a.Width : o+a.Width], a.Val[o : o+a.Width : o+a.Width]
}

// Fill sets every cell of row r to (kind, 0).
func (a *KV) Fill(r int, kind uint8) {
	k, v := a.Row(r)
	for i := range k {
		k[i] = kind
		v[i] = 0
	}
}

// Copy overwrites row dst with row src.
func (a *KV) Copy(dst, src int) {
	dk, dv := a.Row(dst)
	sk, sv := a.Row(src)
	copy(dk, sk)
	copy(dv, sv)
}

// Equal reports raw cell equality of rows x and y (lattice equality
// for normalized rows).
func (a *KV) Equal(x, y int) bool {
	xk, xv := a.Row(x)
	yk, yv := a.Row(y)
	for i := range xk {
		if xk[i] != yk[i] || xv[i] != yv[i] {
			return false
		}
	}
	return true
}

// Span is a struct-of-arrays arena for interval lattices: each row is
// Width [lo, hi] cells split across two parallel []int64 slices. The
// empty interval is encoded canonically as lo > hi (every non-empty
// interval satisfies lo ≤ hi), so raw slice comparison implements
// lattice equality here too. No domain uses it at present: widened
// intervals solve on the boxed path only, and a packed form of the
// finite clamped lattice (intervals.ClampedProblem) would keep its
// bounds here.
type Span struct {
	Width  int
	Lo, Hi []int64
}

// NewSpan returns an arena with width cells per row.
func NewSpan(width int) *Span { return &Span{Width: width} }

// Grow ensures the arena holds at least rows rows.
func (a *Span) Grow(rows int) {
	if need := rows * a.Width; len(a.Lo) < need {
		a.Lo = make([]int64, need)
		a.Hi = make([]int64, need)
	}
}

// Row returns row r's lo and hi cells.
func (a *Span) Row(r int) ([]int64, []int64) {
	o := r * a.Width
	return a.Lo[o : o+a.Width : o+a.Width], a.Hi[o : o+a.Width : o+a.Width]
}

// Copy overwrites row dst with row src.
func (a *Span) Copy(dst, src int) {
	dl, dh := a.Row(dst)
	sl, sh := a.Row(src)
	copy(dl, sl)
	copy(dh, sh)
}

// Equal reports raw cell equality of rows x and y.
func (a *Span) Equal(x, y int) bool {
	xl, xh := a.Row(x)
	yl, yh := a.Row(y)
	for i := range xl {
		if xl[i] != yl[i] || xh[i] != yh[i] {
			return false
		}
	}
	return true
}
