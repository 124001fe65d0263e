// Package parts holds one case per unreachable root rule and two
// findings.
package parts

import "fmt"

// Dead has no caller anywhere.
func Dead() {} // want unreachable `parts.Dead is unreachable`

// OnlyTested is called from parts_test.go alone; tests are not roots.
func OnlyTested() int { return 1 } // want unreachable `parts.OnlyTested is unreachable`

// Registry is a package-level var: every function its initializer
// references is a root.
var Registry = map[string]func(){"hello": hello}

func hello() { fmt.Println("hello") }

// Celsius is printed by main; fmt calls String through fmt.Stringer.
type Celsius float64

// String implements fmt.Stringer.
func (c Celsius) String() string { return fmt.Sprintf("%.1fC", float64(c)) }

// Shape is dispatched through in main.
type Shape interface{ Measure() float64 }

// Square and Circle are both reached from the one interface call.
type Square struct{ Side float64 }

// Measure implements Shape.
func (s Square) Measure() float64 { return s.Side * s.Side }

// Area is reached from the root package's API.
func (s Square) Area() float64 { return s.Measure() }

// Circle is the other Shape.
type Circle struct{ R float64 }

// Measure implements Shape.
func (c Circle) Measure() float64 { return 3 * c.R * c.R }

// Counter's Inc is taken as a method value, never called by name.
type Counter struct{ n int }

// Inc increments the counter.
func (c *Counter) Inc() { c.n++ }

// FromClosure is called only inside a function literal in main.
func FromClosure() {}

// FromCompanion is referenced only by the companion module in bench/.
func FromCompanion() int { return 2 }

// Waived is kept on purpose, and what it calls is kept with it.
//
//lint:allow unreachable fixture: a deliberate waiver is a root
func Waived() int { return waivedHelper() }

func waivedHelper() int { return 3 }
