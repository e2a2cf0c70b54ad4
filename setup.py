"""Package metadata for ``pip install -e .`` / ``python setup.py develop``.

The runtime needs only NumPy.  SciPy is a test dependency: the tests
pin the privacy accountant to ``scipy.special`` bit for bit
(``pip install -e .[test]``).
"""

from setuptools import find_packages, setup

setup(
    name="repro",
    version="1.0.0",
    package_dir={"": "src"},
    packages=find_packages(where="src"),
    python_requires=">=3.10",
    install_requires=["numpy>=1.24"],
    extras_require={"test": ["scipy>=1.10", "pytest", "hypothesis"]},
)
