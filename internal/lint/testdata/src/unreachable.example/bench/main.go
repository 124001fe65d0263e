// Command bench is the fixture's companion module: it only contributes
// roots, like the repository's benchmark harness.
package main

import (
	"fmt"

	"unreachable.example/internal/parts"
)

func main() { fmt.Println(parts.FromCompanion()) }
