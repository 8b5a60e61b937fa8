// Package main is the reach fixture: one binary whose unreachable
// declarations are exactly dead, deadGeneric, deadShape and
// deadShape.area.
package main

import "fmt"

// shape is the interface main calls area through.
type shape interface{ area() float64 }

// square is live: main converts one to a shape.
type square struct{ side float64 }

// area is reached only through the shape interface call in main.
func (s square) area() float64 { return s.side * s.side }

// deadShape shares the interface method's name but nothing uses the
// type, so its area is dead too.
type deadShape struct{}

func (deadShape) area() float64 { return 0 }

// box is a generic type whose method is called on an instance.
type box[T any] struct{ v T }

func (b box[T]) get() T { return b.v }

// larger is a generic function main calls on an inferred instance.
func larger[T int | float64](a, b T) T {
	if a > b {
		return a
	}
	return b
}

// deadGeneric is a generic function no one calls.
func deadGeneric[T any](v T) T { return v }

// fromVar is reached only from a package-level var initializer.
func fromVar() int { return 3 }

var initial = fromVar()

// dead is a plain function no one calls.
func dead() {}

func main() {
	var s shape = square{side: 2}
	fmt.Println(s.area(), larger(initial, 4), box[string]{v: "x"}.get())
}
