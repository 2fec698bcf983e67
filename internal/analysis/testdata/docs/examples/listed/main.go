// Command listed is an example the fixture README's table names.
package main

func main() {}
