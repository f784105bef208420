package shamir

import (
	"fmt"

	"zerber/internal/field"
)

// Reconstructor caches the Lagrange basis coefficients for a fixed set
// of k x-coordinates, reducing per-element reconstruction to k
// multiply-adds. A querying client decrypts thousands of posting
// elements per response from the same k servers (§7.6: the largest ODP
// response is 10K elements), so hoisting the O(k^2) basis computation —
// and its k field inversions — out of the loop is what makes the
// paper's "700 elements per msec" decryption rate reachable.
type Reconstructor struct {
	xs   []field.Element
	coef []field.Element
}

// NewReconstructor precomputes the Lagrange basis at x=0 for the given
// k distinct non-zero x-coordinates.
func NewReconstructor(xs []field.Element) (*Reconstructor, error) {
	if len(xs) < 1 {
		return nil, ErrTooFewShares
	}
	if err := validateXs(xs); err != nil {
		return nil, err
	}
	k := len(xs)
	coef := make([]field.Element, k)
	for i := 0; i < k; i++ {
		num, den := field.Element(1), field.Element(1)
		for j := 0; j < k; j++ {
			if j == i {
				continue
			}
			num = field.Mul(num, xs[j])
			den = field.Mul(den, field.Sub(xs[j], xs[i]))
		}
		coef[i] = field.Div(num, den)
	}
	out := make([]field.Element, k)
	copy(out, xs)
	return &Reconstructor{xs: out, coef: coef}, nil
}

// K returns the number of shares the reconstructor consumes.
func (r *Reconstructor) K() int { return len(r.xs) }

// Xs returns a copy of the x-coordinates, in consumption order.
func (r *Reconstructor) Xs() []field.Element {
	out := make([]field.Element, len(r.xs))
	copy(out, r.xs)
	return out
}

// Coefficients returns a copy of the Lagrange basis at x=0, in
// consumption order: the secret is the sum of Coefficients()[i]·ys[i].
// A caller whose shares are not laid out as a row-major matrix (see
// ReconstructBatch) reads them once and runs the sum itself.
func (r *Reconstructor) Coefficients() []field.Element {
	out := make([]field.Element, len(r.coef))
	copy(out, r.coef)
	return out
}

// Reconstruct recovers the secret from the share values ys, where ys[i]
// is the share from the server with x-coordinate Xs()[i]. len(ys) must
// equal K.
func (r *Reconstructor) Reconstruct(ys []field.Element) (field.Element, error) {
	if len(ys) != len(r.xs) {
		return 0, ErrTooFewShares
	}
	var secret field.Element
	for i, y := range ys {
		secret = field.Add(secret, field.Mul(r.coef[i], y))
	}
	return secret, nil
}

// ReconstructBatch is the read-side twin of Splitter.SplitBatch: it
// recovers one secret per row of ys, a caller-owned row-major share
// matrix of stride values per row, into dst. Row i's share from the
// server with x-coordinate Xs()[j] sits at ys[i*stride+cols[j]], so a
// join that keeps one column per known server reconstructs from
// whichever K of them a basis was built for without gathering.
// len(cols) must equal K, every column must lie inside the stride, and
// len(ys) must equal stride*len(dst). It performs no allocation.
func (r *Reconstructor) ReconstructBatch(dst, ys []field.Element, stride int, cols []int) error {
	if len(cols) != len(r.xs) {
		return ErrTooFewShares
	}
	for _, c := range cols {
		if c < 0 || c >= stride {
			return fmt.Errorf("shamir: share column %d outside stride %d", c, stride)
		}
	}
	if len(ys) != stride*len(dst) {
		return fmt.Errorf("shamir: %d share values for %d rows of %d", len(ys), len(dst), stride)
	}
	for i := range dst {
		row := ys[i*stride : (i+1)*stride]
		var secret field.Element
		for j, c := range cols {
			secret = field.Add(secret, field.Mul(r.coef[j], row[c]))
		}
		dst[i] = secret
	}
	return nil
}
