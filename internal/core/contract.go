package core

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
)

// The input contract. k-Shape and every baseline are defined on n >= 1
// equal-length, non-empty, finite series with 1 <= k <= n, and the
// methods that draw random numbers need a random source. Each rule has
// one check below and one sentinel error; every rejection wraps its
// rule's sentinel, so errors.Is tells the cases apart, and its message
// names the offending row, length, position, k or n.
var (
	ErrNoData    = errors.New("kshape: no input series")
	ErrLength    = errors.New("kshape: series must be equal-length and non-empty")
	ErrNonFinite = errors.New("kshape: non-finite value")
	ErrBadK      = errors.New("kshape: k must satisfy 1 <= k <= number of series")
	ErrNoRand    = errors.New("kshape: no random source")
)

// inputError is one rejection: its message is the detail, and it
// unwraps to the rule's sentinel.
type inputError struct {
	rule error
	msg  string
}

func (e *inputError) Error() string { return e.msg }
func (e *inputError) Unwrap() error { return e.rule }

// Reject returns a rejection of rule whose message is "kshape: " and the
// formatted detail.
func Reject(rule error, format string, args ...any) error {
	return &inputError{rule: rule, msg: "kshape: " + fmt.Sprintf(format, args...)}
}

// CheckCount rejects an empty set of rows; what names the rows.
func CheckCount(what string, n int) error {
	if n == 0 {
		return Reject(ErrNoData, "needs at least one %s", what)
	}
	return nil
}

// CheckK rejects an empty input and k outside [1, n].
func CheckK(k, n int) error {
	if err := CheckCount("series", n); err != nil {
		return err
	}
	if k < 1 || k > n {
		return Reject(ErrBadK, "k=%d, want 1 <= k <= n=%d", k, n)
	}
	return nil
}

// CheckLengths rejects m = 0 and any row whose length is not m; what
// names the rows.
func CheckLengths(what string, rows [][]float64, m int) error {
	if m == 0 {
		return Reject(ErrLength, "%s 0 has length 0", what)
	}
	for i, x := range rows {
		if len(x) != m {
			return Reject(ErrLength, "%s %d has length %d, want %d (all series must be equal-length)", what, i, len(x), m)
		}
	}
	return nil
}

// CheckFinite rejects a NaN or ±Inf value; what names the rows.
func CheckFinite(what string, rows [][]float64) error {
	for i, x := range rows {
		for j, v := range x {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				return Reject(ErrNonFinite, "%s %d has a non-finite value at position %d", what, i, j)
			}
		}
	}
	return nil
}

// CheckRand rejects a missing random source.
func CheckRand(r *rand.Rand) error {
	if r == nil {
		return Reject(ErrNoRand, "Config.Rand is required")
	}
	return nil
}

// CheckRun rejects a clustering run the contract excludes: no series,
// k outside [1, n], or rows of unequal or zero length.
func CheckRun(data [][]float64, k int) error {
	if err := CheckK(k, len(data)); err != nil {
		return err
	}
	return CheckLengths("series", data, len(data[0]))
}
