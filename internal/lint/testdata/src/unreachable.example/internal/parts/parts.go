// Package parts holds one case per unreachable root rule and three
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

// Gauge is dispatched through in main, both of its methods.
type Gauge interface {
	Read() int
	Reset()
}

// Meter implements Gauge.
type Meter struct{ n int }

// Read implements Gauge.
func (m *Meter) Read() int { return m.n }

// Reset implements Gauge.
func (m *Meter) Reset() { m.n = 0 }

// Pages has Read and no Reset; Shelf embeds it and adds Reset, so a
// Gauge call still reaches Pages.Read, promoted into Shelf.
type Pages struct{ n int }

// Read is Shelf's Gauge.Read.
func (p Pages) Read() int { return p.n }

// Shelf implements Gauge through its embedded Pages.
type Shelf struct{ Pages }

// Reset implements Gauge.
func (s *Shelf) Reset() { s.n = 0 }

// Book shares the name Read with Gauge but has no Reset, and no type
// embeds it: no Gauge call can reach its Read.
type Book struct{ pages int }

// Read only shares a name with Gauge.Read.
func (b Book) Read() int { return b.pages } // want unreachable `parts\.\(Book\)\.Read is unreachable`

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
