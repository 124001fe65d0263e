// Command tool is the fixture program whose main is the analyzer's
// root.
package main

import (
	"fmt"

	"unreachable.example/internal/parts"
)

func main() {
	// A String method reached only through fmt.
	fmt.Println(parts.Celsius(21))

	// Interface dispatch fans out to every Measure implementation.
	var shapes []parts.Shape
	shapes = append(shapes, parts.Square{Side: 2}, parts.Circle{R: 1})
	for _, s := range shapes {
		fmt.Println(s.Measure())
	}

	// Interface dispatch through a two-method interface reaches the
	// methods of the types that implement it, promoted ones included,
	// and not a method that only shares a name with it.
	for _, g := range []parts.Gauge{&parts.Meter{}, &parts.Shelf{}} {
		fmt.Println(g.Read())
		g.Reset()
	}

	// A method value, called later.
	c := parts.Counter{}
	inc := c.Inc
	inc()

	// A function reached only through a closure.
	func() { parts.FromClosure() }()

	parts.Registry["hello"]()
}
