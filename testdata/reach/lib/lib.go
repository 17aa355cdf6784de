// Package lib holds the fixture's reached and unreached declarations.
package lib

import "strconv"

// Dead is exported, but nothing reaches it: the var _ line is no use.
func Dead() int { return helper() }

// helper is reached only from Dead.
func helper() int { return 1 }

var _ = Dead

// Level is passed to flag.Var, so the flag package calls its Set and
// String through flag.Value.
type Level int

func (l *Level) Set(s string) error {
	n, err := strconv.Atoi(s)
	*l = Level(n)
	return err
}

func (l *Level) String() string { return strconv.Itoa(int(*l)) }

// Reset is in no interface and nothing calls it.
func (l *Level) Reset() { *l = 0 }

// Name is printed, so fmt calls its String through fmt.Stringer.
type Name string

func (n Name) String() string { return "name " + string(n) }

// Shape is the module's own interface. Total calls Area through it;
// nothing calls Sides.
type Shape interface {
	Area() int
	Sides() int
}

// Square is a Shape.
type Square struct{ Side int }

func (s Square) Area() int { return s.Side * s.Side }

func (s Square) Sides() int { return 4 }

// Perimeter is in no interface and nothing calls it.
func (s Square) Perimeter() int { return 4 * s.Side }

// Total sums the shapes' areas.
func Total(shapes []Shape) int {
	sum := 0
	for _, s := range shapes {
		sum += s.Area()
	}
	return sum
}

// Failure's Is is called by errors.Is through an unnamed interface.
type Failure struct{}

func (Failure) Error() string { return "failure" }

func (Failure) Is(target error) bool { return target == nil }

// Frozen is used only by the frozen module.
func Frozen() string { return "frozen" }
