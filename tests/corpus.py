"""Shared DSL text corpora: valid handwritten programs and malformed inputs.

Every malformed entry records the (line, column) the parser must report for
its first offending token.
"""

HANDWRITTEN_PROGRAMS = [
    # 1: minimal
    "point A = (-1, 0)",
    # 2: symbolic literals, both signs
    "point V = (0, -sqrt3)\npoint T = (sqrt3, pi)\npoint U = (-pi, 0.5)",
    # 3: classic vesica
    """point A = (-1, 0)
point B = (1, 0)
circle ca = A B
circle cb = B A
intersect V = ca cb pick lower""",
    # 4: bind both intersection points
    """point A = (-1, 0)
point B = (1, 0)
circle ca = A B
circle cb = B A
intersect P Q = ca cb""",
    # 5: compass-with-memory radius
    """point C = (0, 0)
point A = (2, 0)
point B = (2, 1)
circle k = C radius A B
point O = (-3, 0)
line ax = O A
intersect L R = ax k""",
    # 6: divide and measure
    """point A = (0, 0)
point B = (6, 0)
divide M = A B 3 1
point U = (0, 4)
angle t = A U M""",
    # 7: near selector
    """point C = (0, 0)
point R = (1, 0)
circle main = C R
point P = (0, 2)
point Q = (0, -2)
line vert = P Q
intersect N = vert main pick near P""",
    # 8: left and right selectors
    """point C = (0, 0)
point R = (0, 1)
circle main = C R
point W = (-2, 0)
point E = (2, 0)
line horiz = W E
intersect A = horiz main pick left
intersect B = horiz main pick right""",
    # 9: first and second
    """point C = (0, 0)
point R = (1, 0)
circle main = C R
point S = (0, -2)
point N = (0, 2)
line vert = S N
intersect F = vert main pick first
intersect G = vert main pick second""",
    # 10: comments and blank lines
    """# a unit circle
point C = (0, 0)   # center

point R = (1, 0)
circle main = C R  # radius one""",
    # 11: ragged whitespace normalizes
    "point   A=( -1,0 )\n\tpoint B   =(1,   0)",
    # 12: perpendicular diameters
    """point C = (0, 0)
point E = (1, 0)
point N = (0, 1)
circle main = C E
point W = (-1, 0)
point S = (0, -1)
line h = W E
line v = S N
intersect O = h v
angle quarter = C E N""",
    # 13: chained divides
    """point A = (-1, 0)
point B = (1, 0)
divide P1 = A B 9 2
divide P2 = A B 9 7
divide M = P1 P2 2 1""",
    # 14: equilateral triangle apex
    """point A = (0, 0)
point B = (1, 0)
circle ca = A B
circle cb = B A
intersect T = ca cb pick upper
angle corner = A B T""",
    # 15: scientific notation literals
    "point A = (1e-3, -2.5e2)\npoint B = (0.0625, 1e1)",
    # 16: tangent pick yields one point
    """point C = (0, 0)
point R = (1, 0)
circle main = C R
point L = (-2, 1)
point M = (2, 1)
line tangent = L M
intersect T = tangent main pick first""",
    # 17: two circles, radius via third segment
    """point C = (0, 0)
point D = (4, 0)
point U = (0, 1)
circle a = C radius C U
circle b = D radius C D
point S = (-9, 0)
line ax = S D
intersect H = ax b pick left""",
    # 18: measure straight angle
    """point C = (0, 0)
point W = (-1, 0)
point E = (1, 0)
angle straight = C W E""",
    # 19: long rational coordinates
    "point A = (0.333333333333333314829616256247390992939472198486328125, 0)\npoint B = (-7.25, 0.125)",
    # 20: hexagon step on the circle
    """point C = (0, 0)
point B = (-1, 0)
circle main = C B
circle step = B radius C B
intersect H1 H2 = main step
angle central = C B H1""",
    # 21: upper/lower mirror
    """point A = (-1, 0)
point B = (1, 0)
circle ca = A B
circle cb = B A
intersect Vlow = ca cb pick lower
intersect Vup = ca cb pick upper
line spine = Vlow Vup""",
    # 22: integer-valued decimals stay put
    "point A = (2.0, -3.0)\npoint B = (10, 4)\ndivide M = A B 12 6",
]

# (text, line, column) of the first offending token
MALFORMED_PROGRAMS = [
    ("point A = (1, 2", 1, 16),
    ("circle c1 = A B B", 1, 17),
    ("pint A = (0, 0)", 1, 1),
    ("point = (0, 0)", 1, 7),
    ("point pi = (0, 0)", 1, 7),
    ("line L = A", 1, 11),
    ("divide F = A B 1.5 2", 1, 16),
    ("divide F = A B pi 2", 1, 16),
    ("intersect V = c1 c2 pick center", 1, 26),
    ("intersect V W = c1 c2 pick upper", 1, 23),
    ("point A = (1; 2)", 1, 13),
    ("angle t = C B", 1, 14),
    ("circle K = A radius B", 1, 22),
    ("point A = (--1, 0)", 1, 13),
    ("point A (0, 0)", 1, 9),
    ("divide F = A B 9", 1, 17),
    ("point A = (1e400, 0)", 1, 12),
    ("intersect V = c1", 1, 17),
    ("point A = (0, 0)\nline L = A B extra", 2, 14),
    ("# nothing here\n", 1, 1),
    ("( A = B", 1, 1),
    ("\x0c", 1, 1),  # a form feed is not a blank
    ("intersect S = a b pick near radius", 1, 29),
    ("line L = A  # note", 1, 19),  # the end of a line is past its comment
]
