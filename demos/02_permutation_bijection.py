"""The statistic-preserving bijection, worked on one permutation.

Start from 463512, build its monotone triangle from sorted prefixes, flip to
the boolean triangle, and watch three statistics survive the trip: the
inversion count becomes the number of zeros, the one in the last matrix row
points at the zeros of the last triangle row, and the one in the last matrix
column points at the lowest one of the last diagonal.
"""

from gogmagog import Permutation, convert, object_statistics

sigma = Permutation.from_one_line("463512")
print(f"sigma = {sigma.one_line()}, {object_statistics(sigma)['inversions']} inversions")

matrix = convert(sigma, "asm")
for row in matrix.rows:
    print("   ", row)
matrix_stats = object_statistics(matrix)
print(f"matrix inversions {matrix_stats['inversions']},"
      f" one in last row at column {matrix_stats['last_row_one_col']},"
      f" one in last column at row {matrix_stats['last_col_one_row']}")

print()
print("monotone triangle (row i = sorted prefix of length i):")
for row in convert(sigma, "monotone_triangle").rows:
    print("   ", row)

print()
print("boolean triangle (1 = copy below-left, 0 = copy below-right):")
b = convert(sigma, "boolean_triangle")
for row in b.rows:
    print("   ", row)

boolean_stats = object_statistics(b)
print(f"zeros {boolean_stats['zeros']} (= inversions),"
      f" last-row zeros {boolean_stats['last_row_zeros']} (= n - {matrix_stats['last_row_one_col']}),"
      f" lowest one of the last diagonal in row {boolean_stats['lowest_one_last_diagonal']}"
      f" (= {matrix_stats['last_col_one_row']} - 1)")

assert convert(b, "permutation") == sigma
print("and back again:", convert(b, "permutation").one_line())
