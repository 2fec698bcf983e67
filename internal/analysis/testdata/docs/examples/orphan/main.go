// Command orphan is an example the fixture README's table leaves out.
package main

func main() {}
